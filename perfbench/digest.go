package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strconv"

	"github.com/llama-surface/llama/internal/metasurface"
)

// committedSeeds is how many seeds (0..committedSeeds-1) digests.json
// covers. Any other seed is checked against a reference the launcher
// computes once per run from the same uncached serial path.
const committedSeeds = 32

// refDigests are the expected outputs of one (workload, seed), as
// truncated SHA-256 digests.
type refDigests struct {
	// Sections holds one digest per checked group of operations: per
	// experiment, the CSVs of its cells (reproduce) or its replicated
	// table (fleet); per chunk of Optimize calls (closed-loop).
	Sections []string `json:"sections"`
}

// digestFile is the committed digests.json: workload → seed → digests.
type digestFile map[string]map[string]*refDigests

//go:embed digests.json
var committedDigests []byte

// digest returns the truncated hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.New()
	h.Write(b)
	return sumDigest(h)
}

// sumDigest returns the truncated hex form of h's sum.
func sumDigest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// loadReference returns the digests for (name, seed): from refFile when
// given, else from the committed file.
func loadReference(name string, seed int64, refFile string) (*refDigests, error) {
	if refFile != "" {
		b, err := os.ReadFile(refFile)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		var ref refDigests
		if err := json.Unmarshal(b, &ref); err != nil {
			return nil, fmt.Errorf("reference %s: %w", refFile, err)
		}
		return &ref, nil
	}
	var all digestFile
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	ref := all[name][strconv.FormatInt(seed, 10)]
	if ref == nil {
		return nil, fmt.Errorf("digests.json has no %s digests for seed %d", name, seed)
	}
	return ref, nil
}

// hasCommitted reports whether digests.json covers seed.
func hasCommitted(seed int64) bool { return seed >= 0 && seed < committedSeeds }

// computeReference runs w's reference with the response cache off: the
// uncached serial path every cached, traced or distributed path must
// match byte for byte (determinism invariants 5 and 9).
func computeReference(ctx context.Context, w workload, seed int64) (*refDigests, error) {
	metasurface.SetCaching(false)
	defer metasurface.SetCaching(true)
	return w.reference(ctx, seed)
}

// printReference prints one reference as JSON (the launcher stores it
// in a file handed to each pass).
func printReference(ctx context.Context, w workload, seed int64) error {
	if w.reference == nil {
		return fmt.Errorf("workload %s checks its outputs without a reference", w.name)
	}
	ref, err := computeReference(ctx, w, seed)
	if err != nil {
		return err
	}
	out, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

// generateDigests rewrites the committed digest file for seeds
// 0..n-1 of every workload that has a reference.
func generateDigests(ctx context.Context, path string, n int) error {
	all := digestFile{}
	for _, w := range workloads {
		if w.reference == nil {
			continue
		}
		all[w.name] = map[string]*refDigests{}
		for s := int64(0); s < int64(n); s++ {
			ref, err := computeReference(ctx, w, s)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			all[w.name][strconv.FormatInt(s, 10)] = ref
			fmt.Fprintf(os.Stderr, "digests: %s seed %d\n", w.name, s)
		}
	}
	// One line per (workload, seed) keeps the file diffable.
	var buf bytes.Buffer
	buf.WriteString("{\n")
	sep := ""
	for _, w := range workloads {
		if all[w.name] == nil {
			continue
		}
		fmt.Fprintf(&buf, "%s%q: {\n", sep, w.name)
		sep = ",\n"
		for s := int64(0); s < int64(n); s++ {
			line, err := json.Marshal(all[w.name][strconv.FormatInt(s, 10)])
			if err != nil {
				return err
			}
			comma := ","
			if s == int64(n)-1 {
				comma = ""
			}
			fmt.Fprintf(&buf, "  \"%d\": %s%s\n", s, line, comma)
		}
		buf.WriteString("}")
	}
	buf.WriteString("\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// splitTables splits a WriteTables CSV stream into its tables: each
// table is followed by one blank line.
func splitTables(csv []byte) [][]byte {
	parts := bytes.SplitAfter(csv, []byte("\n\n"))
	if len(parts) > 0 && len(parts[len(parts)-1]) == 0 {
		parts = parts[:len(parts)-1]
	}
	return parts
}

// tableDigests digests each table of a WriteTables CSV stream.
func tableDigests(csv []byte) []string {
	var out []string
	for _, t := range splitTables(csv) {
		out = append(out, digest(t))
	}
	return out
}

// mismatches compares got against want section by section and returns
// the indexes that differ. A different section count fails every
// expected section.
func mismatches(got, want []string) []int {
	var bad []int
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			bad = append(bad, i)
		}
	}
	return bad
}
