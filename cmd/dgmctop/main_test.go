package main

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"dgmc/internal/obs"
	"dgmc/internal/rt"
)

// healthServer serves a canned (mutable) NodeHealth document on a real admin
// mux, exactly the surface dgmctop scrapes in production.
func healthServer(t *testing.T, h func() rt.NodeHealth) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(obs.NewAdminMux(obs.AdminConfig{
		Health: func() any { return h() },
	}))
	t.Cleanup(srv.Close)
	return srv
}

func addr(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestTopOnce renders a single frame over three scraped daemons — two
// healthy, one mid-recovery — and checks the table rows, the anomaly flags,
// and the cluster summary line.
func TestTopOnce(t *testing.T) {
	healthy := func(sw int) func() rt.NodeHealth {
		return func() rt.NodeHealth {
			return rt.NodeHealth{
				Switch: sw, Conns: 2, Converged: true,
				FIBEntries: 2, AnomalyAgeMS: -1, EventLogDepth: 40 + sw,
				Forward: rt.ForwardStats{Originated: 10, Forwarded: 40, Delivered: 20},
			}
		}
	}
	degraded := func() rt.NodeHealth {
		return rt.NodeHealth{
			Switch: 2, Conns: 2, Converged: false,
			GappedConns:      []uint32{7},
			ResyncArmedConns: []uint32{7},
			GapBufferDepth:   3,
			EventLogDepth:    37,
			EventLogBytes:    9728,
			CatchUpsApplied:  2,
			Forward:          rt.ForwardStats{Forwarded: 5, DropLoop: 1},
			Anomaly:          "drop-loop", AnomalyAgeMS: 1500,
		}
	}
	srvs := []*httptest.Server{
		healthServer(t, healthy(0)),
		healthServer(t, healthy(1)),
		healthServer(t, degraded),
	}
	var out strings.Builder
	err := run([]string{
		"-targets", addr(srvs[0]) + "," + addr(srvs[1]) + "," + addr(srvs[2]),
		"-once",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"SW", "DROPS ne/nr/hb/lp", // header
		"0/0/0/1",                                      // the degraded switch's drop taxonomy
		"gapped[7]", "resync[7]", "drop-loop 1.5s ago", // anomaly flags
		"LOG", "9.5K 37 ff2", // the degraded switch was fast-forwarded by catch-ups
		"cluster: 3/3 up, 2/3 converged",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("frame missing %q:\n%s", want, got)
		}
	}
	// One row per switch, in ID order, with the degraded daemon flagged.
	for _, pat := range []string{`(?m)^0\s+conv.*\s40\s+2\s+ok$`, `(?m)^1\s+conv.*\s41\s+2\s+ok$`, `(?m)^2\s+SYNCING`} {
		if !regexp.MustCompile(pat).MatchString(got) {
			t.Fatalf("frame missing row %q:\n%s", pat, got)
		}
	}
	if strings.Contains(got, "\x1b[2J") {
		t.Fatal("-once frame cleared the screen")
	}
}

// TestTopRates runs two frames against a daemon whose delivered counter
// advances between scrapes: the second frame must show nonzero per-second
// rates derived from the delta.
func TestTopRates(t *testing.T) {
	var scrapes atomic.Uint64
	srv := healthServer(t, func() rt.NodeHealth {
		n := scrapes.Add(1)
		return rt.NodeHealth{
			Switch: 0, Conns: 1, Converged: true, AnomalyAgeMS: -1,
			Forward: rt.ForwardStats{Forwarded: 1000 * n, Delivered: 500 * n},
		}
	})
	var out strings.Builder
	if err := run([]string{"-targets", addr(srv), "-frames", "2", "-interval", "20ms"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Frame 1 has no previous sample → "-" rates; frame 2 must have numbers.
	frames := strings.Split(got, "\x1b[2J\x1b[H")
	last := frames[len(frames)-1]
	if !strings.Contains(last, "conv") {
		t.Fatalf("no rendered row in final frame:\n%s", got)
	}
	if strings.Contains(last, "\t-\t-\t") || strings.Contains(last, " -  - ") {
		t.Fatalf("final frame still shows placeholder rates:\n%s", last)
	}
	if !strings.Contains(got, "pkt/s delivered") {
		t.Fatalf("summary rate line missing:\n%s", got)
	}
}

// TestTopDownTarget keeps an unreachable daemon in the table as DOWN without
// failing the frame.
func TestTopDownTarget(t *testing.T) {
	srv := healthServer(t, func() rt.NodeHealth {
		return rt.NodeHealth{Switch: 0, Converged: true, AnomalyAgeMS: -1}
	})
	dead := httptest.NewServer(nil)
	deadAddr := addr(dead)
	dead.Close() // port is now closed: connection refused

	var out strings.Builder
	err := run([]string{"-targets", addr(srv) + "," + deadAddr, "-once", "-timeout", "500ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "DOWN") || !strings.Contains(got, deadAddr) {
		t.Fatalf("dead target not flagged DOWN:\n%s", got)
	}
	if !strings.Contains(got, "cluster: 1/2 up") {
		t.Fatalf("summary does not count the dead target:\n%s", got)
	}
}

func TestTopFlagValidation(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{},                                   // missing -targets
		{"-targets", " , "},                  // only empty addresses
		{"-targets", "x", "-interval", "0"},  // bad interval
		{"-targets", "x", "-timeout", "-1s"}, // bad timeout
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
