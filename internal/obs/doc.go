// Package obs is the protocol observability layer: a lock-cheap metrics
// registry (scrape-time counter and gauge callbacks plus fixed-bucket
// histograms, with snapshots and Prometheus text export), a causal span
// collector that reconstructs distributed event→compute→flood→recv→install
// chains from core.TraceEntry streams, and the HTTP admin surfaces
// (/metrics, /spans, /state, /debug/pprof) the live daemon exposes.
//
// The package is designed around two constraints:
//
//   - No cost on the paths that count. A count lives with its owner — an
//     atomic, or state behind the owner's lock — and the registry reads it
//     at scrape time through CounterFunc/GaugeFunc. Histograms are the one
//     push instrument; a nil *Registry hands out nil *Histogram handles
//     whose methods return immediately.
//
//   - Race-free when enabled. Histograms are plain atomics, the span
//     collector is mutex-guarded, and the registry's own lock is taken only
//     to register a series and to list series for a scrape.
//
// Both the discrete-event simulator (internal/core driving internal/sim)
// and the live runtime (internal/rt, cmd/dgmcd) feed the same types; only
// the clock differs (virtual time vs. wall clock).
package obs
