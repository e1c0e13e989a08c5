package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestForEachAllJobsFail: when every job fails, the pool must still take
// every job off the channel and return the error, not leave the sender
// blocked on workers that have stopped receiving.
func TestForEachAllJobsFail(t *testing.T) {
	n := 4*runtime.GOMAXPROCS(0) + 1
	done := make(chan error, 1)
	go func() {
		done <- forEach(n, func(i int) error { return fmt.Errorf("job %d failed", i) })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("forEach returned nil after every job failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("forEach did not return within 10s after all %d jobs failed", n)
	}
}
