package control

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"iris/internal/control/devicetest"
)

// TestTestbedPipesLeaveNothing: a testbed makes no file, and Close waits
// for every server it started, a redialled connection's too. A wedged
// device holds its server inside Handle past the request's deadline; the
// client drops the connection and redials onto a fresh pipe, which gets
// a server of its own. With that server wedged too, Close does not return
// until it is released, and then no goroutine of the testbed is left.
func TestTestbedPipesLeaveNothing(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	before := runtime.NumGoroutine()

	dev := devicetest.Wrap(NewTransceiverBank(4, 40))
	tb, err := StartTestbedWithOptions(map[string]Device{"bank": dev}, DialOptions{RPCTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	wedged := func() func() {
		t.Helper()
		stall, release := devicetest.Stall(t)
		dev.Arm(stall)
		if _, err := call(tb.Controller, "bank", "state", nil); !isDeadline(err) {
			t.Fatalf("call to a wedged device = %v, want a deadline", err)
		}
		dev.Arm(nil)
		return release
	}

	release1 := wedged()
	if _, err := call(tb.Controller, "bank", "state", nil); err != nil {
		t.Fatalf("call after the timeout (redialled): %v", err)
	}
	release2 := wedged() // the redialled pipe's server, now inside Handle
	release1()

	closed := make(chan struct{})
	go func() { tb.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a redialled connection's server was inside its device")
	case <-time.After(50 * time.Millisecond):
	}
	release2()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once every device had answered")
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("TMPDIR holds %v (%v), want nothing", left, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the testbed:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestRequestPastTheLineLimit: a request longer than a protocol line is
// refused before anything is sent — the agent could not frame it and
// would drop the connection — and the connection stays usable.
func TestRequestPastTheLineLimit(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{"oss": NewOSS(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	start := time.Now()
	_, err = call(tb.Controller, "oss", "ping", map[string]any{"pad": strings.Repeat("x", maxLine)})
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("over-long request = %v, want it refused for its length", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the over-long request took %v to fail", took)
	}
	if _, err := call(tb.Controller, "oss", "ping", nil); err != nil {
		t.Errorf("ping after the refused request: %v", err)
	}
}
