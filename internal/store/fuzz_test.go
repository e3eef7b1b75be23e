package store

// Fuzzing of the cell-record decoder: a resumed run or a restarted
// llama-serve reads cell files this process did not write, so
// decodeRecord parses untrusted bytes. It must never panic. Every row
// set it and DecodeRows accept must hold exactly the floats its text
// spells and survive EncodeRows → DecodeRows bit for bit, since resume's
// byte identity rests on that round trip. Whatever they reject must
// reach Store.Get's caller as a *CorruptError.
// The seed corpus lives in testdata/fuzz/FuzzDecodeRecord; run with
//
//	go test -run '^$' -fuzz FuzzDecodeRecord -fuzztime 15s ./internal/store

import (
	"errors"
	"math"
	"os"
	"strconv"
	"testing"
)

func FuzzDecodeRecord(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		id, seed := "fuzz", int64(1)
		rec, decErr := decodeRecord(data)
		if decErr == nil {
			id, seed = rec.ID, rec.Seed
		}
		path := s.CellPath(id, seed)
		if os.WriteFile(path, data, 0o644) != nil {
			return // e.g. an ID whose escaped form is too long for a file name
		}
		defer os.Remove(path)
		_, getErr := s.Get(id, seed)
		var corrupt *CorruptError
		if decErr != nil {
			if !errors.As(getErr, &corrupt) {
				t.Fatalf("decodeRecord rejected the file (%v) but Get returned %v", decErr, getErr)
			}
			return
		}
		rows, rowsErr := rec.DecodeRows()
		if rowsErr != nil {
			if !errors.As(getErr, &corrupt) {
				t.Fatalf("DecodeRows rejected the record (%v) but Get returned %v", rowsErr, getErr)
			}
			return
		}
		if getErr != nil {
			t.Fatalf("Get rejected a record that decodes: %v", getErr)
		}
		again := &Record{Columns: rec.Columns, Rows: EncodeRows(rows)}
		back, err := again.DecodeRows()
		if err != nil {
			t.Fatalf("decoding re-encoded rows: %v", err)
		}
		for i, row := range rows {
			for j, v := range row {
				if text, _ := strconv.ParseFloat(rec.Rows[i][j], 64); math.Float64bits(text) != math.Float64bits(v) {
					t.Fatalf("row %d col %d: %q decoded as %v, want %v", i, j, rec.Rows[i][j], v, text)
				}
				if math.Float64bits(back[i][j]) != math.Float64bits(v) {
					t.Fatalf("row %d col %d: %v (%q) round-tripped to %v (%q)",
						i, j, v, rec.Rows[i][j], back[i][j], again.Rows[i][j])
				}
			}
		}
	})
}
