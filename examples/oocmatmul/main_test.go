package main

import (
	"testing"
	"time"
)

// TestRun runs the example end to end. A rank that fails between two
// collectives can leave its peers waiting in the next one, so the run
// gets a deadline.
func TestRun(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the example did not finish within a minute")
	}
}
