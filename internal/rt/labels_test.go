package rt

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// labelledGoroutines counts the live goroutines whose profiler labels
// include every key=value of want, read from the goroutine profile: at
// debug level 1 it groups goroutines by stack and labels, each group a
// "<count> @ <pcs>" line followed by a "# labels: {...}" line when it has
// any.
func labelledGoroutines(t *testing.T, want ...string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	total := 0
next:
	for i := 1; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "# labels: ") {
			continue
		}
		for k := 0; k+1 < len(want); k += 2 {
			if !strings.Contains(lines[i], fmt.Sprintf("%q:%q", want[k], want[k+1])) {
				continue next
			}
		}
		count, _, _ := strings.Cut(lines[i-1], " @ ")
		n, err := strconv.Atoi(count)
		if err != nil {
			t.Fatalf("goroutine profile: no count before %q: %q", lines[i], lines[i-1])
		}
		total += n
	}
	return total
}

// TestReceiveLoopsLabelled: each switch's receive loop runs under the
// profiler labels switch=<id>, work=relay, and is back under them once the
// LSA steps of a join (run under work=lsa) are done.
func TestReceiveLoopsLabelled(t *testing.T) {
	g, err := topo.Grid(2, 2, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join(0, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A loop may still be finishing its last batch; give it a moment.
	eventually := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	for s := 0; s < g.NumSwitches(); s++ {
		sw := strconv.Itoa(s)
		eventually("no goroutine runs under switch="+sw+", work=relay", func() bool {
			return labelledGoroutines(t, "switch", sw, "work", "relay") >= 1
		})
	}
	eventually("a goroutine is still labelled work=lsa after the join converged", func() bool {
		return labelledGoroutines(t, "work", "lsa") == 0
	})
}
