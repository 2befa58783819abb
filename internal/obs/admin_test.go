package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"dgmc/internal/core"
	"dgmc/internal/sim"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminMux(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("dgmc_test_total", func() float64 { return 9 })
	spans := NewSpanCollector(0)
	spans.Trace(core.TraceEntry{
		At: sim.Time(5), Kind: core.TraceEvent, Switch: 1, Conn: 2,
		Chain: core.ChainID{Origin: 1, Seq: 1},
	})
	flight := NewFlightRecorder(16)
	flight.Record(RecFIBSwap, 0, 1, 1, 4)
	flight.Record(RecDropNoRoute, 3, 2, 41, 4)
	mux := NewAdminMux(AdminConfig{
		Registry: reg,
		Spans:    spans,
		State:    func() any { return map[string]int{"conns": 3} },
		Flight: func() *FlightDoc {
			return &FlightDoc{Switch: 1, Cap: flight.Cap(), Written: flight.Written(), Events: flight.Snapshot()}
		},
		Health: func() any { return map[string]bool{"converged": true} },
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if code, body := get(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "dgmc_test_total 9") {
		t.Fatalf("/metrics = %d\n%s", code, body)
	}
	code, body := get(t, srv, "/spans")
	if code != 200 {
		t.Fatalf("/spans = %d", code)
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Spans) != 1 {
		t.Fatalf("/spans body bad (%v):\n%s", err, body)
	}
	code, body = get(t, srv, "/state")
	if code != 200 || !strings.Contains(body, `"conns": 3`) {
		t.Fatalf("/state = %d\n%s", code, body)
	}
	code, body = get(t, srv, "/flightrec")
	if code != 200 {
		t.Fatalf("/flightrec = %d", code)
	}
	var fdoc FlightDoc
	if err := json.Unmarshal([]byte(body), &fdoc); err != nil {
		t.Fatalf("/flightrec body bad (%v):\n%s", err, body)
	}
	if fdoc.Switch != 1 || len(fdoc.Events) != 2 || fdoc.Events[1].Kind != RecDropNoRoute {
		t.Fatalf("/flightrec decoded wrong: %+v", fdoc)
	}
	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, `"converged": true`) {
		t.Fatalf("/healthz = %d\n%s", code, body)
	}
	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
	if code, body := get(t, srv, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d\n%s", code, body)
	}
	if code, _ := get(t, srv, "/nope"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

func TestAdminMuxDisabledEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewAdminMux(AdminConfig{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/spans", "/state", "/flightrec", "/healthz"} {
		if code, _ := get(t, srv, path); code != 404 {
			t.Errorf("%s = %d, want 404 when unconfigured", path, code)
		}
	}
}
