package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// ctx is the context tests pass when no wait is involved.
var ctx = context.Background()

func TestCheckNoPlanIsNoop(t *testing.T) {
	Clear()
	if err := Check(ctx, SiteSolve); err != nil {
		t.Fatalf("Check with no table: %v", err)
	}
	if got := Fired(SiteSolve); got != 0 {
		t.Fatalf("Fired with no table: %d", got)
	}
}

func TestInjectError(t *testing.T) {
	t.Cleanup(Clear)
	boom := errors.New("boom")
	Inject(SiteSolve, Plan{Err: boom})

	err := Check(ctx, SiteSolve)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Check: %v, want ErrInjected", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Check: %v does not wrap the plan's error", err)
	}
	if !strings.Contains(err.Error(), SiteSolve) {
		t.Fatalf("Check error does not name the site: %v", err)
	}
	// Other sites stay clean.
	if err := Check(ctx, SiteCacheFill); err != nil {
		t.Fatalf("uninjected site fired: %v", err)
	}
	if got := Fired(SiteSolve); got != 1 {
		t.Fatalf("Fired: %d, want 1", got)
	}
}

func TestLimitBoundsFirings(t *testing.T) {
	t.Cleanup(Clear)
	Inject(SiteCacheFill, Plan{Err: errors.New("x"), Limit: 2})
	for i := 0; i < 2; i++ {
		if err := Check(ctx, SiteCacheFill); err == nil {
			t.Fatalf("firing %d: nil, want error", i)
		}
	}
	for i := 0; i < 3; i++ {
		if err := Check(ctx, SiteCacheFill); err != nil {
			t.Fatalf("past the limit: %v", err)
		}
	}
	if got := Fired(SiteCacheFill); got != 2 {
		t.Fatalf("Fired: %d, want 2 (checks past the limit don't count)", got)
	}
}

func TestInjectPanic(t *testing.T) {
	t.Cleanup(Clear)
	Inject(SiteSolve, Plan{Panic: "chaos"})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Check did not panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "chaos") || !strings.Contains(msg, SiteSolve) {
			t.Fatalf("panic message %q missing plan text or site", msg)
		}
	}()
	Check(ctx, SiteSolve)
}

func TestInjectDelay(t *testing.T) {
	t.Cleanup(Clear)
	Inject(SiteSnapshotLoad, Plan{Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := Check(ctx, SiteSnapshotLoad); err != nil {
		t.Fatalf("delay-only plan returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("Check returned after %v, want >= 20ms", elapsed)
	}
}

func TestRemoveAndClear(t *testing.T) {
	t.Cleanup(Clear)
	Inject(SiteSolve, Plan{Err: errors.New("a")})
	Inject(SiteCacheFill, Plan{Err: errors.New("b")})

	Remove(SiteSolve)
	if err := Check(ctx, SiteSolve); err != nil {
		t.Fatalf("removed site still fires: %v", err)
	}
	if err := Check(ctx, SiteCacheFill); err == nil {
		t.Fatal("Remove disturbed an unrelated site")
	}
	// Removing the last plan and removing a missing site are both fine.
	Remove(SiteCacheFill)
	Remove("never-installed")
	if err := Check(ctx, SiteCacheFill); err != nil {
		t.Fatalf("after removing everything: %v", err)
	}

	Inject(SiteSolve, Plan{Err: errors.New("c")})
	Clear()
	if err := Check(ctx, SiteSolve); err != nil {
		t.Fatalf("after Clear: %v", err)
	}
}

// TestConcurrentCheckDuringInject races hot-path Checks against
// copy-on-write writers; the -race build is the assertion.
func TestConcurrentCheckDuringInject(t *testing.T) {
	t.Cleanup(Clear)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Check(ctx, SiteSolve)
					Check(ctx, SiteCacheFill)
					Fired(SiteSolve)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		Inject(SiteSolve, Plan{Err: ErrInjected, Limit: 1})
		Inject(SiteCacheFill, Plan{})
		Remove(SiteCacheFill)
		Clear()
	}
	close(stop)
	wg.Wait()
}

// TestCheckNoPlanAllocs: the production state costs no allocation.
func TestCheckNoPlanAllocs(t *testing.T) {
	Clear()
	if allocs := testing.AllocsPerRun(1000, func() { _ = Check(ctx, SiteSolve) }); allocs != 0 {
		t.Fatalf("Check with no plan allocates %v per call, want 0", allocs)
	}
	Inject(SiteCacheFill, Plan{})
	t.Cleanup(Clear)
	if allocs := testing.AllocsPerRun(1000, func() { _ = Check(ctx, SiteSolve) }); allocs != 0 {
		t.Fatalf("Check of an uninjected site allocates %v per call, want 0", allocs)
	}
}

// TestGateReleasesWhenClosed: a gated site holds every caller until the
// gate closes, then lets them all through.
func TestGateReleasesWhenClosed(t *testing.T) {
	t.Cleanup(Clear)
	gate := make(chan struct{})
	Inject(SiteSolve, Plan{Gate: gate})
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- Check(ctx, SiteSolve) }()
	}
	for Fired(SiteSolve) < 2 {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Check returned %v before the gate closed", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("released Check: %v", err)
		}
	}
}

// TestWaitEndsWithContext: a canceled or expired context ends a Gate or
// Delay wait early with the context's own error, which the server maps
// to 499 and 504.
func TestWaitEndsWithContext(t *testing.T) {
	t.Cleanup(Clear)
	plans := map[string]Plan{
		"gate":  {Gate: make(chan struct{})},
		"delay": {Delay: time.Hour},
	}
	for name, plan := range plans {
		Inject(SiteSolve, plan)
		canceled, cancel := context.WithCancel(context.Background())
		go func() {
			for Fired(SiteSolve) == 0 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		if err := Check(canceled, SiteSolve); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s, canceled context: %v, want context.Canceled", name, err)
		}
		expiring, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		if err := Check(expiring, SiteSolve); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s, expired context: %v, want context.DeadlineExceeded", name, err)
		}
		stop()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: wait outlived its 10ms deadline by %v", name, elapsed)
		}
	}
}

// TestLimitWithGate: firings past the limit neither wait on the gate nor
// count, and a firing whose wait ended with its context still counts.
func TestLimitWithGate(t *testing.T) {
	t.Cleanup(Clear)
	Inject(SiteSolve, Plan{Gate: make(chan struct{}), Limit: 1})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Check(canceled, SiteSolve); !errors.Is(err, context.Canceled) {
		t.Fatalf("first firing: %v, want context.Canceled", err)
	}
	for i := 0; i < 3; i++ {
		if err := Check(ctx, SiteSolve); err != nil {
			t.Fatalf("past the limit: %v", err)
		}
	}
	if got := Fired(SiteSolve); got != 1 {
		t.Fatalf("Fired: %d, want 1", got)
	}
}
