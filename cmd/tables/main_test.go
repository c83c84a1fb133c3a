package main

import (
	"bytes"
	"testing"

	"strongdecomp/internal/bench"
)

// TestAccountingBlockDeterministic renders the Theorem 2.1 accounting
// block repeatedly: its per-label lines come from a map, so any order
// that follows map iteration shows up as differing text.
func TestAccountingBlockDeterministic(t *testing.T) {
	acc, err := bench.Thm21Accounting("grid", 1024, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	writeAccounting(&first, acc)
	for i := 1; i < 20; i++ {
		var again bytes.Buffer
		writeAccounting(&again, acc)
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, again.String(), first.String())
		}
	}
}
