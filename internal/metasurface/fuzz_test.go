package metasurface

// Fuzzing of the table-record decoder: persisted response tables are
// read back from the store, so ImportResponseTable parses bytes this
// process did not write. It must never panic, must reject a corrupt
// record without registering anything, and every record it accepts must
// survive export → reset → import → export unchanged, since warm starts
// (invariant #10) rest on that round trip. The seed corpus lives in
// testdata/fuzz/FuzzImportResponseTable; run with
//
//	go test -run '^$' -fuzz FuzzImportResponseTable -fuzztime 15s ./internal/metasurface

import (
	"encoding/json"
	"reflect"
	"testing"
)

func FuzzImportResponseTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ex TableExport
		if json.Unmarshal(data, &ex) != nil {
			return
		}
		ResetResponseTables()
		before := TableCount()
		n, err := ImportResponseTable(ex)
		if err != nil {
			if after := TableCount(); after != before {
				t.Fatalf("rejected import changed TableCount %d → %d: %v", before, after, err)
			}
			return
		}
		if want := len(ex.Axis) + len(ex.QWP); n != want {
			t.Fatalf("accepted import returned %d, want %d rows", n, want)
		}
		first := ExportResponseTables()
		ResetResponseTables()
		for _, tbl := range first {
			if _, err := ImportResponseTable(tbl); err != nil {
				t.Fatalf("re-importing an export: %v", err)
			}
		}
		// Rows are shortest-round-trip float strings ("NaN", "+Inf",
		// "-0" included), so equal strings are equal bits.
		if again := ExportResponseTables(); !reflect.DeepEqual(again, first) {
			t.Fatalf("export → import → export changed the rows:\n got %v\nwant %v", again, first)
		}
	})
}
