package control

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestTestbedSocketsArePrivate: a testbed serves every device on a Unix
// socket in one directory only its own user may enter, the controller
// dials each device on that socket, and Close removes the directory.
func TestTestbedSocketsArePrivate(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{
		"oss":  NewOSS(4, 0),
		"xcvr": NewTransceiverBank(2, 40),
		"amp":  NewAmplifier(20, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close() // a second Close is harmless

	if len(tb.listeners) != len(tb.Devices) {
		t.Fatalf("%d listeners for %d devices", len(tb.listeners), len(tb.Devices))
	}
	dir := tb.dir
	for _, l := range tb.listeners {
		addr := l.Addr()
		if addr.Network() != "unix" || filepath.Dir(addr.String()) != dir {
			t.Errorf("device served on %s %s, want a unix socket in %s", addr.Network(), addr, dir)
		}
		if fi, err := os.Stat(addr.String()); err != nil || fi.Mode().Type() != os.ModeSocket {
			t.Errorf("%s: %v, mode %v; want a socket", addr, err, fi)
		}
	}
	fi, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir() || fi.Mode().Perm() != 0o700 {
		t.Errorf("socket directory %s has mode %v, want a directory of mode 0700", dir, fi.Mode())
	}
	for _, name := range tb.Controller.Devices() {
		if cl := tb.Controller.devices[name]; cl.addr.Network() != "unix" {
			t.Errorf("controller dials %s on %s %s, want its unix socket", name, cl.addr.Network(), cl.addr)
		}
		if _, err := tb.Controller.Call(name, "ping", nil); err != nil {
			t.Errorf("ping %s: %v", name, err)
		}
	}

	tb.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("socket directory %s after Close: %v, want it gone", dir, err)
	}
}

// TestTestbedSocketPathTooLong: a temporary directory so deep that a
// socket's path passes the kernel's limit (sockaddr_un's sun_path, 108
// bytes on Linux) fails the testbed with an error that names the path,
// says it is too long for that limit and that a shorter TMPDIR fixes it,
// and leaves no directory behind.
func TestTestbedSocketPathTooLong(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), strings.Repeat("d", 120))
	if err := os.Mkdir(tmp, 0o700); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)

	tb, err := StartTestbed(map[string]Device{"oss": NewOSS(4, 0)})
	if err == nil {
		tb.Close()
		t.Fatalf("testbed under a %d-byte TMPDIR started", len(tmp))
	}
	if want := filepath.Join(tmp, "iris-tb-"); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name the socket path under %s", err, want)
	}
	limit := strconv.Itoa(len(syscall.RawSockaddrUnix{}.Path))
	if !strings.Contains(err.Error(), "sockaddr_un's "+limit) || !strings.Contains(err.Error(), "shorter TMPDIR") {
		t.Errorf("err = %v, want it to give the %s-byte limit and a shorter TMPDIR as the fix", err, limit)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("TMPDIR holds %v after the failed start (%v), want nothing", left, err)
	}
}
