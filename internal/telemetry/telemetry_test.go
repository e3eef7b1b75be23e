package telemetry

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSerializeDecodeRoundTrip(t *testing.T) {
	in := Report{Seq: 42, Timestamp: 1234567 * time.Microsecond, RSSIdBm: -47.125, Flags: FlagSweepActive}
	buf := make([]byte, FrameLen)
	n, err := in.SerializeTo(buf)
	if err != nil || n != FrameLen {
		t.Fatalf("serialize: %d, %v", n, err)
	}
	var out Report
	if err := out.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Timestamp != in.Timestamp || out.Flags != in.Flags {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
	if math.Abs(out.RSSIdBm-in.RSSIdBm) > 0.001 {
		t.Errorf("RSSI %v vs %v", out.RSSIdBm, in.RSSIdBm)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seq uint32, micros uint32, milli int32, flags uint16) bool {
		in := Report{
			Seq:       seq,
			Timestamp: time.Duration(micros) * time.Microsecond,
			RSSIdBm:   float64(milli) / 1000,
			Flags:     flags,
		}
		buf := make([]byte, FrameLen)
		if _, err := in.SerializeTo(buf); err != nil {
			return false
		}
		var out Report
		if err := out.DecodeFromBytes(buf); err != nil {
			return false
		}
		return out.Seq == in.Seq && out.Timestamp == in.Timestamp &&
			out.Flags == in.Flags && out.RSSIdBm == in.RSSIdBm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAppend(t *testing.T) {
	r := Report{Seq: 1, RSSIdBm: -50}
	buf, err := r.Append([]byte{0xAA})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1+FrameLen || buf[0] != 0xAA {
		t.Errorf("append shape: %d bytes", len(buf))
	}
	var out Report
	if err := out.DecodeFromBytes(buf[1:]); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := make([]byte, FrameLen)
	r := Report{Seq: 7, RSSIdBm: -33}
	if _, err := r.SerializeTo(good); err != nil {
		t.Fatal(err)
	}
	var out Report
	// Short.
	if err := out.DecodeFromBytes(good[:10]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short error = %v", err)
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if err := out.DecodeFromBytes(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic error = %v", err)
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[1] = 99
	if err := out.DecodeFromBytes(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version error = %v", err)
	}
	// Flipped payload bit breaks the CRC.
	bad = append([]byte(nil), good...)
	bad[17] ^= 0x01
	if err := out.DecodeFromBytes(bad); !errors.Is(err, ErrBadCRC) {
		t.Errorf("crc error = %v", err)
	}
}

func TestSerializeErrors(t *testing.T) {
	r := Report{RSSIdBm: -50}
	if _, err := r.SerializeTo(make([]byte, 10)); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short buffer error = %v", err)
	}
	r.RSSIdBm = math.NaN()
	if _, err := r.SerializeTo(make([]byte, FrameLen)); err == nil {
		t.Error("NaN RSSI should fail")
	}
	for _, v := range []float64{1e10, math.Inf(1), math.Inf(-1)} {
		r.RSSIdBm = v
		if _, err := r.SerializeTo(make([]byte, FrameLen)); err == nil {
			t.Errorf("RSSI %g should fail", v)
		}
	}
	r = Report{RSSIdBm: -50, Timestamp: -time.Microsecond}
	if _, err := r.SerializeTo(make([]byte, FrameLen)); err == nil {
		t.Error("negative timestamp should fail")
	}
}

func TestTrailingBytesTolerated(t *testing.T) {
	buf := make([]byte, FrameLen+8)
	r := Report{Seq: 3, RSSIdBm: -60}
	if _, err := r.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := out.DecodeFromBytes(buf); err != nil {
		t.Errorf("padding should be tolerated: %v", err)
	}
}

func TestUDPTransportEndToEnd(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	rep, err := NewReporter(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	for i := 0; i < 10; i++ {
		if err := rep.Report(time.Duration(i)*time.Millisecond, -40-float64(i), FlagSweepActive); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		got, err := col.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint32(i) {
			t.Errorf("seq = %d, want %d", got.Seq, i)
		}
		if math.Abs(got.RSSIdBm-(-40-float64(i))) > 0.01 {
			t.Errorf("rssi[%d] = %v", i, got.RSSIdBm)
		}
	}
	if col.Malformed() != 0 || col.Lost() != 0 {
		t.Errorf("malformed=%d lost=%d", col.Malformed(), col.Lost())
	}
}

func TestCollectorRejectsGarbage(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	rep, err := NewReporter(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// Hand-roll garbage datagrams on a raw socket.
	raw, err := NewReporter(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.conn.Write([]byte("not a frame at all........")); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Then one good frame to sequence the test.
	if err := rep.Report(time.Millisecond, -50, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := col.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.RSSIdBm != -50 {
		t.Errorf("good frame rssi = %v", got.RSSIdBm)
	}
	if col.Malformed() < 2 {
		t.Errorf("malformed = %d, want ≥ 2", col.Malformed())
	}
}

func TestNextHonorsContext(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := col.Next(ctx); err == nil {
		t.Error("Next should fail on context timeout")
	}
}

func TestReporterBadAddress(t *testing.T) {
	if _, err := NewReporter("this is not an address"); err == nil {
		t.Error("bad address should fail")
	}
}

func TestStringer(t *testing.T) {
	r := Report{Seq: 9, RSSIdBm: -41.5}
	if !strings.Contains(r.String(), "-41.5") {
		t.Errorf("String = %q", r.String())
	}
}
