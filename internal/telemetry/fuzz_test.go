package telemetry

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestDecodeNeverPanicsOnGarbage hammers the decoder with random bytes:
// a malformed datagram must produce an error, never a panic or a bogus
// accept (the CRC gate).
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	accepted := 0
	for i := 0; i < 50000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		var r Report
		if err := r.DecodeFromBytes(buf); err == nil {
			accepted++
		}
	}
	// A random 24+ byte buffer passes magic+version+CRC with
	// probability ≈ 2^-48; zero accepts expected over 50k trials.
	if accepted != 0 {
		t.Errorf("decoder accepted %d random buffers", accepted)
	}
}

// TestDecodeBitFlipsAlwaysCaught flips every single bit of a valid frame:
// the CRC (plus header checks) must catch each one.
func TestDecodeBitFlipsAlwaysCaught(t *testing.T) {
	good := make([]byte, FrameLen)
	r := Report{Seq: 1234, Timestamp: 5 * time.Second, RSSIdBm: -47.25, Flags: FlagSweepActive}
	if _, err := r.SerializeTo(good); err != nil {
		t.Fatal(err)
	}
	for byteIdx := 0; byteIdx < FrameLen; byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), good...)
			mutated[byteIdx] ^= 1 << bit
			var out Report
			if err := out.DecodeFromBytes(mutated); err == nil {
				t.Fatalf("single bit flip at byte %d bit %d went undetected", byteIdx, bit)
			}
		}
	}
}

// TestDecodeTruncations exercises every prefix length of a valid frame.
func TestDecodeTruncations(t *testing.T) {
	good := make([]byte, FrameLen)
	r := Report{Seq: 7, RSSIdBm: -60}
	if _, err := r.SerializeTo(good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < FrameLen; n++ {
		var out Report
		if err := out.DecodeFromBytes(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	var out Report
	if err := out.DecodeFromBytes(good); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
}

// FuzzDecodeReport feeds arbitrary datagrams to the frame decoder. The
// properties: it never panics, every rejection is one of the typed
// decoding errors, and an accepted frame re-serializes to exactly the
// bytes it was decoded from. The seed corpus lives in
// testdata/fuzz/FuzzDecodeReport; run with
//
//	go test -run '^$' -fuzz FuzzDecodeReport -fuzztime 15s ./internal/telemetry
func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Report
		if err := r.DecodeFromBytes(data); err != nil {
			for _, want := range []error{ErrShortFrame, ErrBadMagic, ErrBadVersion, ErrBadCRC, ErrBadTimestamp} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		out := make([]byte, FrameLen)
		n, err := r.SerializeTo(out)
		if err != nil {
			t.Fatalf("accepted frame %+v does not re-serialize: %v", r, err)
		}
		if !bytes.Equal(out[:n], data[:FrameLen]) {
			t.Fatalf("round trip changed the frame:\n got %x\nwant %x", out[:n], data[:FrameLen])
		}
	})
}
