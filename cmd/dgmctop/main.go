// Command dgmctop is a cluster-wide health console for a dgmc fabric: it
// scrapes every daemon's admin /healthz endpoint and renders one live table —
// per-switch throughput, the four-way drop taxonomy, convergence and
// gap-recovery state, and anomaly flags — plus a one-line cluster summary.
//
//	dgmctop -targets 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102
//
// Each refresh re-scrapes all targets in parallel; per-second rates come from
// the delta between consecutive frames. A daemon that fails to answer shows
// as DOWN and stays in the table. Use -once for a single non-interactive
// frame (e.g. from scripts), -frames N to stop after N refreshes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"dgmc/internal/rt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dgmctop:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dgmctop", flag.ContinueOnError)
	targets := fs.String("targets", "", "comma-separated daemon admin addresses (host:port) to scrape (required)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval between frames")
	once := fs.Bool("once", false, "render a single frame and exit (no screen clearing)")
	frames := fs.Int("frames", 0, "stop after N frames (0 = run until interrupted)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-target scrape timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targets == "" {
		return fmt.Errorf("-targets is required")
	}
	if *interval <= 0 || *timeout <= 0 {
		return fmt.Errorf("-interval and -timeout must be positive")
	}
	var list []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			list = append(list, t)
		}
	}
	if len(list) == 0 {
		return fmt.Errorf("-targets has no addresses")
	}
	max := *frames
	if *once {
		max = 1
	}
	top := &top{
		targets:  list,
		client:   &http.Client{Timeout: *timeout},
		interval: *interval,
		clear:    !*once,
		prev:     make(map[int]rateSample),
	}
	for n := 0; max == 0 || n < max; n++ {
		if n > 0 {
			time.Sleep(*interval)
		}
		top.frame(stdout)
	}
	return nil
}

// top holds the scrape loop's state: the target list and the previous
// frame's counters, from which per-second rates are derived.
type top struct {
	targets  []string
	client   *http.Client
	interval time.Duration
	clear    bool
	prev     map[int]rateSample
}

// rateSample is one switch's counters at one scrape instant.
type rateSample struct {
	at        time.Time
	forwarded uint64
	delivered uint64
	drops     uint64
}

// row is one scraped target: its health document, or the error that kept it
// out of this frame.
type row struct {
	target string
	h      rt.NodeHealth
	err    error
}

// frame scrapes every target in parallel and renders one table.
func (t *top) frame(w io.Writer) {
	rows := make([]row, len(t.targets))
	var wg sync.WaitGroup
	for i, target := range t.targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			rows[i] = t.scrape(target)
		}(i, target)
	}
	wg.Wait()
	// Stable display order: by switch ID when known, then by target string
	// (unreachable daemons sort last, where the eye expects the problem).
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if (a.err == nil) != (b.err == nil) {
			return a.err == nil
		}
		if a.err == nil {
			return a.h.Switch < b.h.Switch
		}
		return a.target < b.target
	})
	t.render(w, rows, time.Now())
}

func (t *top) scrape(target string) row {
	r := row{target: target}
	resp, err := t.client.Get("http://" + target + "/healthz")
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d", resp.StatusCode)
		return r
	}
	r.err = json.Unmarshal(body, &r.h)
	return r
}

func (t *top) render(w io.Writer, rows []row, now time.Time) {
	if t.clear {
		fmt.Fprint(w, "\x1b[2J\x1b[H")
	}
	up, converged := 0, 0
	var dlvRate float64
	next := make(map[int]rateSample, len(rows))

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "SW\tSTATE\tCONNS\tFWD/s\tDLV/s\tORIG\tFWD\tDLV\tDROPS ne/nr/hb/lp\tGAP\tLOG\tFIB\tANOMALY")
	for _, r := range rows {
		if r.err != nil {
			fmt.Fprintf(tw, "?\tDOWN\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t%s: %v\n", r.target, r.err)
			continue
		}
		up++
		h := r.h
		state := "conv"
		if !h.Converged {
			state = "SYNCING"
		} else {
			converged++
		}
		cur := rateSample{
			at:        now,
			forwarded: h.Forward.Forwarded,
			delivered: h.Forward.Delivered,
			drops:     h.Forward.Drops(),
		}
		next[h.Switch] = cur
		fwdR, dlvR := "-", "-"
		if prev, ok := t.prev[h.Switch]; ok && now.After(prev.at) {
			dt := now.Sub(prev.at).Seconds()
			fr := float64(cur.forwarded-prev.forwarded) / dt
			dr := float64(cur.delivered-prev.delivered) / dt
			fwdR, dlvR = fmt.Sprintf("%.0f", fr), fmt.Sprintf("%.0f", dr)
			dlvRate += dr
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%s\t%s\t%d\t%d\t%d\t%d/%d/%d/%d\t%d\t%s\t%d\t%s\n",
			h.Switch, state, h.Conns, fwdR, dlvR,
			h.Forward.Originated, h.Forward.Forwarded, h.Forward.Delivered,
			h.Forward.DropNoEntry, h.Forward.DropNoRoute, h.Forward.DropHops, h.Forward.DropLoop,
			h.GapBufferDepth, logCell(h), h.FIBEntries, anomalyCell(h))
	}
	tw.Flush()
	fmt.Fprintf(w, "cluster: %d/%d up, %d/%d converged, %.0f pkt/s delivered  (%s)\n",
		up, len(rows), converged, up, dlvRate, now.Format("15:04:05"))
	t.prev = next
}

// logCell shows what the switch's replay log occupies in KiB and how many
// event LSAs it retains, flagged with the number of catch-ups it has
// applied: "9.5K 37" recovered (if at all) by replaying events,
// "9.5K 37 ff2" was fast-forwarded over two origins' trimmed history by a
// peer.
func logCell(h rt.NodeHealth) string {
	cell := fmt.Sprintf("%.1fK %d", float64(h.EventLogBytes)/1024, h.EventLogDepth)
	if h.CatchUpsApplied == 0 {
		return cell
	}
	return fmt.Sprintf("%s ff%d", cell, h.CatchUpsApplied)
}

// anomalyCell folds a health document's warning signals into one short flag
// column: live gap/resync/give-up state first, then the most recent recorded
// anomaly with its age.
func anomalyCell(h rt.NodeHealth) string {
	var flags []string
	if len(h.GappedConns) > 0 {
		flags = append(flags, fmt.Sprintf("gapped%v", h.GappedConns))
	}
	if len(h.ResyncArmedConns) > 0 {
		flags = append(flags, fmt.Sprintf("resync%v", h.ResyncArmedConns))
	}
	if len(h.GiveUpConns) > 0 {
		flags = append(flags, fmt.Sprintf("GIVEUP%v", h.GiveUpConns))
	}
	if h.Anomaly != "" && h.AnomalyAgeMS >= 0 {
		flags = append(flags, fmt.Sprintf("%s %s ago",
			h.Anomaly, (time.Duration(h.AnomalyAgeMS)*time.Millisecond).Round(time.Millisecond)))
	}
	if len(flags) == 0 {
		return "ok"
	}
	return strings.Join(flags, " ")
}
