package main

// metric is one named figure the benchmark prints.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median a change may lose
}

// endToEndMetrics are what a user of the system sees; a run with --trace 0
// prints all of them. The bounds follow the run-to-run spread measured on
// a shared 2-CPU host: wall and CPU times drift by up to a sixth between
// processes there, allocation and RSS by a few percent.
var endToEndMetrics = []metric{
	{"mpix_s", "Mpix/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"cpu_ns_per_pix", "ns/pix", "lower", 0.25},
	{"alloc_mb_per_op", "MiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"success_rate", "ratio", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are the traced run's split, named after the modules;
// a run with --trace 1 prints all of them, and a layer the workload
// bypasses reads 0. Millisecond figures are means per op (per request on
// serve-mixed); counts are means per op.
var perLayerMetrics = []metric{
	{name: "image.decode_ns_per_pix", unit: "ns/pix", better: "lower"},
	{name: "image.pack_ns_per_pix", unit: "ns/pix", better: "lower"},
	{name: "seq.label_ns_per_pix", unit: "ns/pix", better: "lower"},
	{name: "seq.runs_per_kpix", unit: "1/kpix", better: "lower"},
	{name: "seq.band_components", unit: "count", better: "lower"},
	{name: "par.strip_label_ms", unit: "ms", better: "lower"},
	{name: "par.border_merge_ms", unit: "ms", better: "lower"},
	{name: "par.relabel_ms", unit: "ms", better: "lower"},
	{name: "par.cleanup_ms", unit: "ms", better: "lower"},
	{name: "par.unattributed_pct", unit: "%", better: "lower"},
	{name: "par.border_edges", unit: "count", better: "lower"},
	{name: "par.uf_finds", unit: "count", better: "lower"},
	{name: "par.relabeled_pixels", unit: "count", better: "lower"},
	{name: "par.speedup_vs_1w", unit: "x", better: "higher"},
	{name: "stream.band_decode_ms", unit: "ms", better: "lower"},
	{name: "stream.band_label_ms", unit: "ms", better: "lower"},
	{name: "stream.band_merge_ms", unit: "ms", better: "lower"},
	{name: "stream.band_write_ms", unit: "ms", better: "lower"},
	{name: "stream.unattributed_ms", unit: "ms", better: "lower"},
	{name: "stream.label_passes", unit: "ratio", better: "lower"},
	{name: "stream.fragments", unit: "count", better: "lower"},
	{name: "stream.links", unit: "count", better: "lower"},
	{name: "serve.decode_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.label_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.census_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.unattributed_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.transport_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []spec{
	{
		name:    "resident-dense",
		why:     "4096^2 binary and grey noise through ReadPGM and the resident engine: decode, pack, union-find and paint dominate; stream and serve are bypassed",
		prepare: prepareResident,
	},
	{
		name:    "stream-census",
		why:     "census-only stream.Label of an on-disk P5 noise file: fold- and merge-state-heavy, no write pass; same pixels as resident-dense",
		prepare: prepareStreamCensus,
	},
	{
		name:    "stream-labels",
		why:     "stream.Label with label output on a tall image of long runs: the write pass and the second labeling of every band",
		prepare: prepareStreamLabels,
	},
	{
		name:    "serve-mixed",
		why:     "two closed-loop clients over loopback HTTP with small images: per-request overhead of decode, queue, pool and rendering; enough ops for a tail",
		prepare: prepareServe,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func perLayerNames() []string {
	names := make([]string, len(perLayerMetrics))
	for i, m := range perLayerMetrics {
		names[i] = m.name
	}
	return names
}

// unitOf returns a metric's unit ("" for an unknown name).
func unitOf(name string) string {
	for _, list := range [][]metric{endToEndMetrics, perLayerMetrics} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
