// Package leakcheck is the tests' one goroutine-leak assertion: take a
// Base before the code under test starts anything, and Check after it
// should have stopped everything — a fan-out pool, a stream's timer, a
// listener's connections — allowing for the goroutines that wind down
// on their own a moment later.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Base is the number of goroutines a check compares against.
type Base int

// Take reads the base: the goroutines running now.
func Take() Base { return Base(runtime.NumGoroutine()) }

// Check polls until at most slack goroutines more than b are running,
// and fails t naming what after two seconds.
func (b Base) Check(t testing.TB, slack int, what string) {
	t.Helper()
	limit := int(b) + slack
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > limit {
		t.Errorf("goroutines after %s: %d (baseline %d, slack %d) — leak", what, got, int(b), slack)
	}
}
