package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"iris/internal/chaos"
)

// getJSONError asserts a request fails with the given status and a JSON
// {"error": ...} body, returning the error message.
func getJSONError(t *testing.T, res *http.Response, wantCode int) string {
	t.Helper()
	defer res.Body.Close()
	if res.StatusCode != wantCode {
		t.Fatalf("status = %d, want %d", res.StatusCode, wantCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error content-type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Error == "" {
		t.Fatal("JSON error body has empty error field")
	}
	return body.Error
}

// TestDebugEventsUnknownReconfig pins the /debug/events contract: a known
// reconfig ID returns its span dump, an unknown one a 404 with a JSON
// error body rather than an empty 200 dump.
func TestDebugEventsUnknownReconfig(t *testing.T) {
	h := newHistoryRig(t, [][2]float64{{60, 45}})
	h.d.ProbeOnce()
	h.d.Step()
	srv := httptest.NewServer(h.d.Handler())
	defer srv.Close()

	id := h.d.Status().LastReconfigID
	if id == 0 {
		t.Fatal("no committed reconfiguration")
	}
	res, err := srv.Client().Get(srv.URL + "/debug/events?reconfig=" + strconv.FormatUint(id, 10))
	if err != nil {
		t.Fatal(err)
	}
	var dump eventsDump
	if res.StatusCode != 200 {
		t.Fatalf("known reconfig returned %d", res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(dump.Events) == 0 || len(dump.Tree) == 0 {
		t.Fatalf("known reconfig dump empty: %d events, %d roots", len(dump.Events), len(dump.Tree))
	}

	res, err = srv.Client().Get(srv.URL + "/debug/events?reconfig=999999999")
	if err != nil {
		t.Fatal(err)
	}
	msg := getJSONError(t, res, http.StatusNotFound)
	if !strings.Contains(msg, "999999999") {
		t.Fatalf("404 body does not name the missing reconfig: %q", msg)
	}

	// The unfiltered firehose dump stays a 200 even when empty of the
	// requested trace.
	res, err = srv.Client().Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("unfiltered dump returned %d", res.StatusCode)
	}
}

// TestChaosCycleEndpointValidation covers /debug/chaos/cycle's error
// paths: wrong method, unparsable scenario, bad timeout.
func TestChaosCycleEndpointValidation(t *testing.T) {
	h := newHistoryRig(t, [][2]float64{{60, 45}})
	h.d.ProbeOnce()
	h.d.Step()
	srv := httptest.NewServer(h.d.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/chaos/cycle?scenario=cut:0")
	if err != nil {
		t.Fatal(err)
	}
	getJSONError(t, res, http.StatusMethodNotAllowed)

	res, err = srv.Client().Post(srv.URL+"/debug/chaos/cycle?scenario=bogus:9", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	getJSONError(t, res, http.StatusBadRequest)

	res, err = srv.Client().Post(srv.URL+"/debug/chaos/cycle?scenario=cut:0&timeout=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	getJSONError(t, res, http.StatusBadRequest)
}

// TestHTTPServerBoundsSlowClients pins the hardening both binaries rely
// on: the server Serve runs bounds header reads and idle connections.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(h)
	if srv.Handler != h {
		t.Fatalf("server not wired to its handler: %+v", srv)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set",
			srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
}

// TestServeEndsWithItsLoop: Serve answers while its loop runs, and a
// loop that ends on its own — a feed run dry — shuts the server down and
// returns nil.
func TestServeEndsWithItsLoop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "up") })
	loop := func(ctx context.Context) error {
		res, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			return err
		}
		defer res.Body.Close()
		if body, _ := io.ReadAll(res.Body); string(body) != "up" {
			return errors.New("served " + strconv.Quote(string(body)))
		}
		return nil
	}
	if err := Serve(context.Background(), ln, h, loop); err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
	if _, err := http.Get("http://" + ln.Addr().String()); err == nil {
		t.Fatal("the server still answers after Serve returned")
	}
}

// TestServeFailureEndsTheLoop: a listener that cannot serve cancels the
// loop's context and comes back as Serve's error, instead of ending the
// process from a goroutine.
func TestServeFailureEndsTheLoop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	loop := func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	if err := Serve(context.Background(), ln, http.NotFoundHandler(), loop); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("Serve on a closed listener = %v, want its accept error", err)
	}
}

// TestUnencodableBodyAnswers500: a fault whose scenario carries a NaN
// (nothing that parses a query lets one in; only a bug can) makes the
// chaos injector's snapshot unencodable, and both routes that serve it,
// /status and the injector's /debug/chaos, answer 500 with a JSON error
// body, not a 200 with no body.
func TestUnencodableBodyAnswers500(t *testing.T) {
	cfg := DefaultRegionConfig()
	cfg.Chaos, cfg.OSSDelay = true, 0
	b, err := BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	sc := chaos.Cut(b.Rig.Fab.Deployment().Region.Map.Ducts[0].ID)
	sc.Center.X = math.NaN()
	if _, err := b.Injector.Inject(sc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Daemon.Handler())
	defer srv.Close()
	for _, route := range []string{"/status", "/debug/chaos"} {
		res, err := srv.Client().Get(srv.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		if msg := getJSONError(t, res, http.StatusInternalServerError); !strings.Contains(msg, "NaN") {
			t.Errorf("%s: error %q does not name the NaN", route, msg)
		}
	}
}
