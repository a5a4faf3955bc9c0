package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"parimg"
	"parimg/internal/atomicio"
	"parimg/internal/cli"
	"parimg/internal/fault"
	"parimg/internal/image"
	"parimg/internal/seq"
	"parimg/internal/stream"
)

// streamConfig is the parsed flag state the -stream path consumes.
type streamConfig struct {
	inFile, outFile string
	bandRows        int
	conn            int
	top             int
	grey            bool
	metricsPath     string
	timeout         time.Duration
	checkpoint      string
	checkpointEvery int
	resume          bool
	censusJSON      string
}

// censusDoc is the deterministic JSON census the -census-json flag emits:
// only run-invariant fields, so a resumed run's document is byte-identical
// to an uninterrupted one and smoke tests can diff the two.
type censusDoc struct {
	Width      int                `json:"width"`
	Height     int                `json:"height"`
	Components int64              `json:"components"`
	Foreground int64              `json:"foreground"`
	Bands      int                `json:"bands"`
	BandRows   int                `json:"band_rows"`
	Links      int64              `json:"links"`
	Top        []stream.Component `json:"top,omitempty"`
}

// stallInjector builds the kill-window pacing hook the crash smoke test
// uses: with IMGCC_STREAM_STALL_BAND=k the census pass sleeps at band k's
// commit point (IMGCC_STREAM_STALL_MS milliseconds, default 60000), long
// enough for the harness to kill -9 the process in a known state. Unset,
// it returns nil and the pipeline runs at full speed.
func stallInjector() *fault.Injector {
	bandEnv := os.Getenv("IMGCC_STREAM_STALL_BAND")
	if bandEnv == "" {
		return nil
	}
	band, err := strconv.Atoi(bandEnv)
	if err != nil || band < 0 {
		return nil
	}
	ms := 60000
	if msEnv := os.Getenv("IMGCC_STREAM_STALL_MS"); msEnv != "" {
		if v, err := strconv.Atoi(msEnv); err == nil && v >= 0 {
			ms = v
		}
	}
	return fault.New(1, fault.Delay, 1).At("band_commit").OnRound(band + 1).
		WithDelay(time.Duration(ms) * time.Millisecond)
}

// runStream is the -stream path: out-of-core labeling of an on-disk PGM
// in band windows. Unlike the resident backends it reads straight from
// the file (only -in selects the image), accepts rectangular images, and
// has no 65535-side ceiling — the 64-bit streaming label space covers
// images whose pixel count exceeds uint32. All file artifacts (-out,
// -census-json, -checkpoint) are written atomically: a run killed or
// failing at any instant leaves either nothing or a previous complete
// file at those paths, never a torn prefix.
func runStream(cfg streamConfig) error {
	if cfg.inFile == "" {
		return fmt.Errorf("-stream reads from disk: give it -in FILE")
	}
	f, err := os.Open(cfg.inFile)
	if err != nil {
		return err
	}
	defer f.Close()

	ctx, cancel := cli.TimeoutContext(cfg.timeout)
	defer cancel()
	var rec *parimg.MetricsRecorder
	if cfg.metricsPath != "" {
		rec = parimg.NewMetricsRecorder()
	}
	if cfg.checkpointEvery < 0 {
		cfg.checkpointEvery = 0 // flag contract: <= 0 selects the default cadence
	}
	opt := stream.Options{
		Conn:            image.Connectivity(cfg.conn),
		BandRows:        cfg.bandRows,
		TopK:            cfg.top,
		Context:         ctx,
		Obs:             rec,
		Checkpoint:      cfg.checkpoint,
		CheckpointEvery: cfg.checkpointEvery,
		Resume:          cfg.resume,
		Fault:           stallInjector(),
	}
	if cfg.grey {
		opt.Mode = seq.Grey
	}

	var out *atomicio.File
	if cfg.outFile != "" {
		if out, err = atomicio.Create(cfg.outFile); err != nil {
			return err
		}
		defer out.Abort() // no-op once committed; otherwise removes the partial
	}
	start := time.Now()
	var res *stream.Result
	if out != nil {
		res, err = stream.Label(f, out, opt)
	} else {
		res, err = stream.Label(f, nil, opt)
	}
	elapsed := time.Since(start)
	fill := func(m *parimg.Metrics) {
		m.Command, m.Backend = "imgcc", "stream"
		m.Image = cfg.inFile
		if res != nil {
			m.N = res.Width
		}
		m.TotalNS = elapsed.Nanoseconds()
	}
	if err != nil {
		return cli.WriteRunMetrics(cfg.metricsPath, rec, err, fill)
	}
	if out != nil {
		if err := out.Commit(); err != nil {
			return cli.WriteRunMetrics(cfg.metricsPath, rec, err, fill)
		}
	}

	fmt.Printf("out-of-core stream, %dx%d image (%d bands of up to %d rows), %v, %v mode\n",
		res.Width, res.Height, res.Bands, res.BandRows, opt.Conn, opt.Mode)
	if res.ResumedFrom > 0 {
		fmt.Printf("resumed from band %d of %d\n", res.ResumedFrom, res.Bands)
	}
	fmt.Printf("%d connected components, %d foreground pixels, wall time %v\n",
		res.Components, res.Foreground, elapsed)
	for i, c := range res.Top {
		fmt.Printf("  #%-2d label %-12d %d pixels\n", i+1, c.Label, c.Size)
	}
	if cfg.censusJSON != "" {
		if err := writeCensusJSON(cfg.censusJSON, res); err != nil {
			return cli.WriteRunMetrics(cfg.metricsPath, rec, err, fill)
		}
	}
	return cli.WriteRunMetrics(cfg.metricsPath, rec, nil, fill)
}

// writeCensusJSON writes the run-invariant census document atomically.
func writeCensusJSON(path string, res *stream.Result) error {
	doc := censusDoc{
		Width:      res.Width,
		Height:     res.Height,
		Components: res.Components,
		Foreground: res.Foreground,
		Bands:      res.Bands,
		BandRows:   res.BandRows,
		Links:      res.Links,
		Top:        res.Top,
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}
