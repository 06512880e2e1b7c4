package main

import "testing"

// TestRun runs the example end to end.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
