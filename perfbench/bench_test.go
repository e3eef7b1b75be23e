package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
)

// TestInputsSeeded checks that every generated input is a function of
// the seed: the same seed gives identical inputs, another seed differs.
func TestInputsSeeded(t *testing.T) {
	gen := func(seed int64) any {
		return []any{reproduceSeeds(seed), fleetSeeds(seed), closedLoopDeployments(seed, 300)}
	}
	if a, b := gen(7), gen(7); !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	a, b := gen(7), gen(8)
	for i := range a.([]any) {
		if reflect.DeepEqual(a.([]any)[i], b.([]any)[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestFlippedByteCaught checks the output check itself: a result stream
// with one byte changed fails exactly the table that holds the byte.
func TestFlippedByteCaught(t *testing.T) {
	ids := experiments.IDs()[:3]
	rep, err := experiments.Execute(context.Background(), experiments.Options{IDs: ids, Seeds: []int64{1, 2}, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rep.WriteTables(&csv, "csv"); err != nil {
		t.Fatal(err)
	}
	want := tableDigests(csv.Bytes())
	if len(want) != len(ids) {
		t.Fatalf("%d tables, want %d", len(want), len(ids))
	}
	if bad := mismatches(tableDigests(csv.Bytes()), want); len(bad) != 0 {
		t.Fatalf("unchanged output flagged: %v", bad)
	}
	tables := splitTables(csv.Bytes())
	at := len(tables[0]) + len(tables[1])/2 // a byte inside the second table
	flipped := append([]byte(nil), csv.Bytes()...)
	flipped[at] ^= 0x01
	if bad := mismatches(tableDigests(flipped), want); !reflect.DeepEqual(bad, []int{1}) {
		t.Fatalf("flipped byte in table 1 flagged tables %v", bad)
	}
	truncated := csv.Bytes()[:len(tables[0])]
	if bad := mismatches(tableDigests(truncated), want); len(bad) != len(want) {
		t.Fatalf("truncated output flagged %v, want every table", bad)
	}
}

// TestCommittedDigests checks that digests.json covers every committed
// seed of every checked workload with the expected number of groups.
func TestCommittedDigests(t *testing.T) {
	var all digestFile
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		t.Fatal(err)
	}
	tables := len(experiments.IDs())
	want := map[string]int{
		"reproduce":   tables,
		"closed-loop": closedLoopOps / closedLoopChunk,
		"fleet":       tables,
	}
	for name, n := range want {
		for s := 0; s < committedSeeds; s++ {
			ref := all[name][strconv.Itoa(s)]
			if ref == nil {
				t.Fatalf("%s seed %d: no digests", name, s)
			}
			if len(ref.Sections) != n {
				t.Errorf("%s seed %d: %d digests, want %d", name, s, len(ref.Sections), n)
			}
		}
	}
}

// TestUnion checks the child-coverage arithmetic behind self time.
func TestUnion(t *testing.T) {
	ms := time.Millisecond
	kids := []span{{start: 5 * ms, end: 9 * ms}, {start: 1 * ms, end: 3 * ms}, {start: 2 * ms, end: 4 * ms}}
	if got := union(kids); got != 7*ms {
		t.Fatalf("union = %v, want 7ms", got)
	}
}
