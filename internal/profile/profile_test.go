package profile

import (
	"os"
	"path/filepath"
	"testing"
)

var sink float64

func TestStartWritesRequestedProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 1_000_000 {
		sink += float64(i) * 1e-9
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

func TestStartWithoutFilesWritesNothing(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("profiling off wrote %d files", len(entries))
	}
}

func TestStartReportsUnwritablePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	if _, err := Start(bad, ""); err == nil {
		t.Error("unwritable CPU profile path accepted")
	}
}
