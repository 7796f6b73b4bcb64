package main

import (
	"context"
	"testing"

	"repro/internal/explore"
)

// TestCheckCatchesFlippedByte runs one registered sweep and shows that the
// output check passes on the recorded reference, and fails when one byte
// of the reference or of the document is flipped.
func TestCheckCatchesFlippedByte(t *testing.T) {
	if err := loadRefs(); err != nil {
		t.Fatal(err)
	}
	exp, err := explore.Lookup("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := sweepDoc(context.Background(), exp, "analytic", "", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !checkDoc("sweep", "fig8a", doc, 7) {
		t.Fatal("reference check rejects the program's own output")
	}
	if checkDoc("sweep", "fig8a", doc, 8) {
		t.Error("check accepts a document that does not echo the requested seed")
	}

	saved := refs.Sweeps["fig8a"]
	defer func() { refs.Sweeps["fig8a"] = saved }()
	ref := []byte(saved)
	ref[len(ref)/2] ^= 1
	refs.Sweeps["fig8a"] = string(ref)
	if checkDoc("sweep", "fig8a", doc, 7) {
		t.Error("check accepts a reference with one flipped byte")
	}
	refs.Sweeps["fig8a"] = saved

	bad := append([]byte(nil), doc...)
	bad[len(bad)-10] ^= 1
	if checkDoc("sweep", "fig8a", bad, 7) {
		t.Error("check accepts a document with one flipped byte")
	}
}

// TestPoolCheck pins the stochastic comparison: identical estimates pass,
// estimates within the combined interval pass, far ones fail.
func TestPoolCheck(t *testing.T) {
	c := newPoolCheck()
	c.binomial("same", 10, 1e6, 10, 1e6)
	c.binomial("near", 105, 1e6, 100, 1e6)
	c.estimate("rate", 1e-6, 1e-7, 1.05e-6, 1e-7)
	if n := c.failures(); n != 0 {
		t.Fatalf("failures = %d, want 0", n)
	}
	c.binomial("far", 200, 1e6, 100, 1e6)
	c.estimate("off", 2e-6, 1e-7, 1e-6, 1e-7)
	if n := c.failures(); n != 2 {
		t.Fatalf("failures = %d, want 2", n)
	}
}
