package rt

import (
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/obs"
)

// NodeHealth is one switch's health summary: the JSON document behind the
// /healthz admin endpoint and the dgmcd `health` REPL verb, and the row
// source for the dgmctop cluster aggregator. It answers the operator
// questions directly — converged? gapped? resync armed? what did the flight
// recorder last flag? — and carries the forward counters so scrape deltas
// yield throughput and drop rates.
type NodeHealth struct {
	Switch int    `json:"switch"`
	Epoch  uint64 `json:"epoch"`

	// Conns counts live (non-dormant) connections; Converged is true when
	// every one of them is individually converged (core.Machine.Settled):
	// received == computed == expected stamp, and no detected gap.
	Conns     int  `json:"conns"`
	Converged bool `json:"converged"`

	// GappedConns lists connections with a detected sequence gap;
	// ResyncArmedConns those with a pending gap-check timer; GiveUpConns
	// those whose recovery exhausted its round budget.
	GappedConns      []uint32 `json:"gapped_conns,omitempty"`
	ResyncArmedConns []uint32 `json:"resync_armed_conns,omitempty"`
	GiveUpConns      []uint32 `json:"give_up_conns,omitempty"`
	// GapBufferDepth totals event LSAs buffered out of order across
	// connections; OutOfOrderMax is the deepest single connection.
	GapBufferDepth int `json:"gap_buffer_depth"`
	// EventLogDepth totals event LSAs retained for replay across
	// connections; it stays below core.EventLogLimit per connection however
	// long the switch has lived. CatchUpsApplied counts the times this
	// incarnation fast-forwarded an origin's counter on a catch-up instead
	// of applying its events one by one: non-zero means state here was
	// recovered from a peer that had already trimmed those events.
	// EventLogBytes is what the replay logs occupy in memory: the capacity
	// of every connection's record arena and index, filled or not.
	EventLogDepth   int    `json:"event_log_depth"`
	EventLogBytes   int    `json:"event_log_bytes"`
	CatchUpsApplied uint64 `json:"catch_ups_applied"`

	// FIBEntries / FIBCompiles describe the data plane's table; Forward
	// its counters (sum over stripes).
	FIBEntries  int          `json:"fib_entries"`
	FIBCompiles uint64       `json:"fib_compiles"`
	Forward     ForwardStats `json:"forward"`

	// RxFramesPerBatch is the mean number of frames a receive wake-up found
	// waiting, TxFramesPerBurst the mean a flushed send burst carried, both
	// since boot (0 before the first). Near 1 the switch pays a full
	// hand-off per frame; the data plane's throughput comes from these
	// rising under load.
	RxFramesPerBatch float64 `json:"rx_frames_per_batch"`
	TxFramesPerBurst float64 `json:"tx_frames_per_burst"`
	// RxParksPerBatch is the share of receive batches the receive loop had
	// gone to sleep before (0 over a transport that does not count parks):
	// near 1 every batch pays a wake-up, near 0 the loop is kept runnable by
	// traffic — and some of the CPU it is charged is yield time.
	RxParksPerBatch float64 `json:"rx_parks_per_batch"`

	// Flight summarizes the recorder: total records written, plus the most
	// recent anomaly (drop / resync / reconcile / rejoin) and how long ago
	// it happened. Anomaly is "" with AnomalyAgeMS -1 when the recorder is
	// off or nothing anomalous has been recorded.
	FlightWritten uint64 `json:"flight_written"`
	Anomaly       string `json:"anomaly,omitempty"`
	AnomalyAgeMS  int64  `json:"anomaly_age_ms"`
}

// Health assembles the node's health summary. It takes the machine lock
// briefly (same cost class as Metrics or a /state scrape); never call it
// from the forward path.
func (n *Node) Health() NodeHealth {
	parks, _, _ := n.RxWaits()
	h := NodeHealth{
		Switch:       int(n.id),
		Epoch:        n.epoch,
		Converged:    true,
		FIBEntries:   n.fib.Load().Size(),
		FIBCompiles:  n.fibCompiles.Load(),
		Forward:      n.ForwardStats(),
		AnomalyAgeMS: -1,

		RxFramesPerBatch: mean(n.batching.rxFrames.Load(), n.batching.rxBatches.Load()),
		TxFramesPerBurst: mean(n.batching.txFrames.Load(), n.batching.txBursts.Load()),
		RxParksPerBatch:  mean(parks, n.batching.rxBatches.Load()),
	}

	n.mu.Lock()
	conns := n.machine.Connections()
	h.Conns = len(conns)
	for _, conn := range conns {
		if !n.machine.Settled(conn) {
			h.Converged = false
		}
		if n.machine.Gapped(conn) {
			h.GappedConns = append(h.GappedConns, uint32(conn))
		}
		if n.machine.ResyncArmed(conn) {
			h.ResyncArmedConns = append(h.ResyncArmedConns, uint32(conn))
		}
		if n.machine.ResyncGaveUp(conn) {
			h.GiveUpConns = append(h.GiveUpConns, uint32(conn))
		}
	}
	h.GapBufferDepth = n.machine.GapBufferDepth()
	h.EventLogDepth = n.machine.EventLogDepth()
	h.EventLogBytes = n.machine.EventLogBytes()
	h.CatchUpsApplied = n.machine.Metrics().CatchUpsApplied
	n.mu.Unlock()

	h.FlightWritten = n.flight.Written()
	if kind, at := n.flight.LastAnomaly(); kind != obs.RecNone {
		h.Anomaly = kind.String()
		if age := time.Since(at).Milliseconds(); age >= 0 {
			h.AnomalyAgeMS = age
		} else {
			h.AnomalyAgeMS = 0
		}
	}
	return h
}

// mean is sum/count, 0 when nothing was counted.
func mean(sum, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// HealthyConn reports whether one connection is individually converged and
// gap-free on this node (a narrower cut of Health for tests and the REPL).
func (n *Node) HealthyConn(conn lsa.ConnID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.machine.Settled(conn)
}
