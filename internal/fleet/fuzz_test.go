package fleet

// Fuzzing of the coordinator's completion decoder: POST /fleet/complete
// bodies come from remote workers, so json.Unmarshal → fromWire must
// never panic, and every payload it accepts must survive re-encoding
// (toWire → JSON → fromWire) bit-exactly, since invariant 9 rests on
// that round trip. The seed corpus lives in
// testdata/fuzz/FuzzFleetComplete; run with
//
//	go test -run '^$' -fuzz FuzzFleetComplete -fuzztime 15s ./internal/fleet

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"github.com/llama-surface/llama/internal/experiments"
)

func FuzzFleetComplete(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req completeRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		res, err := fromWire(req)
		if err != nil {
			return
		}
		body, err := json.Marshal(completeRequest{
			LeaseID:       req.LeaseID,
			Points:        toWire(res),
			ElapsedMillis: res.Elapsed.Milliseconds(),
		})
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		var again completeRequest
		if err := json.Unmarshal(body, &again); err != nil {
			t.Fatalf("decoding a re-encoded payload: %v", err)
		}
		back, err := fromWire(again)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !sameExternal(res, back) {
			t.Fatalf("round trip changed the payload:\n got %+v\nwant %+v", back, res)
		}
	})
}

// sameExternal compares two completion results bit-for-bit (NaN-safe);
// a nil and an empty notes list are the same on the wire.
func sameExternal(a, b experiments.ExternalResult) bool {
	if a.Elapsed != b.Elapsed || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		if len(pa.Rows) != len(pb.Rows) || !slices.Equal(pa.Notes, pb.Notes) {
			return false
		}
		for r := range pa.Rows {
			if !slices.EqualFunc(pa.Rows[r], pb.Rows[r], func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) {
				return false
			}
		}
	}
	return true
}
