package scpi

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/psu"
)

// boundInstrument returns a fully bound tree for parser robustness tests.
func boundInstrument() (*Tree, *psu.Supply) {
	supply := psu.New()
	tree := NewTree()
	now := time.Duration(0)
	Bind(tree, supply, func() time.Duration { now += 25 * time.Millisecond; return now })
	return tree, supply
}

// TestDispatchNeverPanicsOnGarbage throws random printable and binary
// lines at the full instrument tree: the dispatcher must always return
// (response or queued error), never panic.
func TestDispatchNeverPanicsOnGarbage(t *testing.T) {
	tree, _ := boundInstrument()
	rng := rand.New(rand.NewSource(44))
	alphabet := []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789:;?*,. \t-")
	for i := 0; i < 20000; i++ {
		n := rng.Intn(48)
		line := make([]byte, n)
		for j := range line {
			line[j] = alphabet[rng.Intn(len(alphabet))]
		}
		// Must not panic; errors are fine.
		tree.Dispatch(string(line)) //nolint:errcheck
	}
	// Binary garbage too.
	for i := 0; i < 5000; i++ {
		n := rng.Intn(32)
		line := make([]byte, n)
		rng.Read(line)
		tree.Dispatch(string(line)) //nolint:errcheck
	}
}

// TestDispatchAdversarialCorpus runs a table of hand-picked nasty inputs.
func TestDispatchAdversarialCorpus(t *testing.T) {
	tree, supply := boundInstrument()
	corpus := []string{
		"",
		";;;;",
		":::::",
		"?",
		"*",
		"VOLT",                         // set with no argument
		"VOLT ",                        // trailing space, no argument
		"VOLT 1 2 3",                   // too many tokens (parsed as one arg string)
		"VOLT NaN",                     // parses, but is no voltage
		"VOLT 1e309",                   // float overflow
		"VOLT -0",                      // negative zero is a legal 0
		"APPL",                         // missing everything
		"APPL CH1",                     // missing voltage
		"APPL CH1,",                    // empty voltage
		"APPL ,5",                      // empty channel
		"APPL CH99,5",                  // bad channel
		"APPL CH1,5,9",                 // extra arg
		"INST:SEL",                     // missing parameter
		"INST:SEL CHX",                 // malformed channel
		"OUTP MAYBE",                   // bad boolean
		"*IDN",                         // identification as a set
		"MEAS:VOLT 5",                  // query-only used as set
		"SYST:ERR",                     // query-only used as set
		strings.Repeat("VOLT 5;", 200), // long chains
		strings.Repeat("A", 4000),      // long header
		"INST:SEL:EXTRA:DEEP:PATH CH1", // overlong path
		"vOlT? ; iNsT:sEl? ;  *idn?",   // case soup with spaces
	}
	for _, line := range corpus {
		// No panics allowed; queries may error.
		tree.Dispatch(line) //nolint:errcheck
	}
	// The instrument must still be fully functional afterwards.
	resp, err := tree.Dispatch("*IDN?")
	if err != nil || !strings.Contains(resp, "2230G") {
		t.Fatalf("instrument wedged after corpus: %q, %v", resp, err)
	}
	if err := supply.Select(psu.CH2); err != nil {
		t.Fatal(err)
	}
	if resp, err := tree.Dispatch("INST:SEL?"); err != nil || resp != "CH2" {
		t.Fatalf("selection broken after corpus: %q, %v", resp, err)
	}
	// Drain the error queue: it must terminate.
	for i := 0; ; i++ {
		if tree.PopError() == `0,"No error"` {
			break
		}
		if i > 1000 {
			t.Fatal("error queue never drains")
		}
	}
}

// TestNegativeZeroVoltage pins the edge semantics: "-0" parses to 0,
// which is in range.
func TestNegativeZeroVoltage(t *testing.T) {
	tree, supply := boundInstrument()
	if _, err := tree.Dispatch("VOLT -0"); err != nil {
		t.Fatal(err)
	}
	if e := tree.PopError(); e != `0,"No error"` {
		t.Fatalf("-0 volt queued error %q", e)
	}
	v, err := supply.Setpoint(psu.CH1)
	if err != nil || v != 0 {
		t.Fatalf("setpoint = %v, %v", v, err)
	}
}

// TestNaNVoltageRejected pins that a NaN setpoint, which strconv parses
// without error, is refused by the supply's range check: the command
// queues a -222 range error and the setpoint keeps its old value.
func TestNaNVoltageRejected(t *testing.T) {
	tree, supply := boundInstrument()
	if _, err := tree.Dispatch("VOLT 7"); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"VOLT NaN", "APPL CH1,nan", "APPL CH1,inf", "VOLT -Inf"} {
		if _, err := tree.Dispatch(line); err != nil {
			t.Fatalf("%q: set commands report through the queue, got %v", line, err)
		}
		if e := tree.PopError(); !strings.HasPrefix(e, "-222,") {
			t.Errorf("%q queued %q, want a -222 range error", line, e)
		}
		if v, err := supply.Setpoint(psu.CH1); err != nil || v != 7 {
			t.Errorf("after %q: setpoint = %v, %v; want 7", line, v, err)
		}
	}
}

// FuzzDispatch feeds arbitrary lines to the fully bound instrument tree,
// twice on the same tree so the error queue carries state between
// calls. The properties: Dispatch never panics, the error queue never
// holds more than 16 entries, a failed query answers "", and every
// channel's setpoint stays finite and inside [0, psu.MaxVoltage]. The
// seed corpus lives in testdata/fuzz/FuzzDispatch. Its 64-part line
// (queue-overflow) uses one-byte parts: the fuzzer minimizes every new
// input in O(n²) executions, and a long seed would spend the whole run
// minimizing its own mutants. Run with
//
//	go test -run '^$' -fuzz FuzzDispatch -fuzztime 15s ./internal/scpi
func FuzzDispatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		tree, supply := boundInstrument()
		for i := 0; i < 2; i++ {
			resp, err := tree.Dispatch(line)
			if err != nil && resp != "" {
				t.Fatalf("failed query answered %q (error %v)", resp, err)
			}
			tree.mu.RLock()
			n := len(tree.errq)
			tree.mu.RUnlock()
			if n > 16 {
				t.Fatalf("error queue holds %d entries, limit 16", n)
			}
			for _, ch := range []psu.Channel{psu.CH1, psu.CH2, psu.CH3} {
				v, err := supply.Setpoint(ch)
				if err != nil {
					t.Fatal(err)
				}
				if math.IsNaN(v) || v < 0 || v > psu.MaxVoltage {
					t.Fatalf("%v setpoint %v outside [0, %v]", ch, v, psu.MaxVoltage)
				}
			}
		}
	})
}
