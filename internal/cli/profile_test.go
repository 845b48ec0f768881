package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestProfileFlagsRegister(t *testing.T) {
	for _, register := range []func(*CampaignFlags, *flag.FlagSet){(*CampaignFlags).Register, (*CampaignFlags).RegisterNoEngine} {
		var p CampaignFlags
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		register(&p, fs)
		if err := fs.Parse([]string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}); err != nil {
			t.Fatal(err)
		}
		if p.CPUProfile != "cpu.out" || p.MemProfile != "mem.out" {
			t.Fatalf("parsed flags = %+v", p)
		}
	}
}

func TestProfileFlagsDisabledIsNoop(t *testing.T) {
	var p CampaignFlags
	stop, err := p.startProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

func TestProfileFlagsWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	p := CampaignFlags{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	stop, err := p.startProfile()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have something to record.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i % 7
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPUProfile, p.MemProfile} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	// Idempotent: a deferred second stop after an explicit one is a no-op.
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

func TestProfileFlagsBadCPUPathFailsFast(t *testing.T) {
	p := CampaignFlags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")}
	if _, err := p.startProfile(); err == nil {
		t.Fatal("Start succeeded with an unwritable CPU profile path")
	}
}

func TestProfileFlagsBadMemPathSurfacesOnStop(t *testing.T) {
	p := CampaignFlags{MemProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")}
	stop, err := p.startProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop succeeded with an unwritable heap profile path")
	}
}
