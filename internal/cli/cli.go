// Package cli holds the flag conventions shared by the repo's commands, so
// imgcc, imghist and benchjson agree on flag names, defaults, help text and
// semantics instead of re-implementing them with drift. Every shared flag
// has one usage constant and one constructor here; a command that needs the
// flag calls the constructor and gets identical help output to its
// siblings (pinned by the help-consistency test).
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"parimg/internal/errs"
	"parimg/internal/obs"
)

// Run executes a command body under the commands' failure contract: a
// returned error prints as a single "name: error" line on stderr and yields
// exit code 1; a run stopped by -timeout or cancellation (an error wrapping
// errs.ErrDeadline or errs.ErrCanceled) prints a one-line "timed out after
// Xs" / "canceled after Xs" message and yields exit code 2, so scripts can
// tell "the input was bad" from "the work was cut short"; a panic escaping
// fn is recovered into the same one-line form (no goroutine stack trace
// reaches the user) and yields 1; success yields 0. Command mains are
// expected to be exactly
//
//	func main() { os.Exit(cli.Run("imgcc", run)) }
//
// so every failure mode, including bugs, exits identically.
func Run(name string, fn func() error) int {
	return runTo(os.Stderr, name, fn)
}

// runTo is Run writing to an explicit stderr, for tests.
func runTo(stderr io.Writer, name string, fn func() error) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "%s: internal error: %v\n", name, r)
			code = 1
		}
	}()
	if err := fn(); err != nil {
		if msg, ok := cutShortMessage(err); ok {
			fmt.Fprintf(stderr, "%s: %s\n", name, msg)
			return 2
		}
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

// cutShortMessage maps a deadline/cancellation error to the one-line exit-2
// message, dropping the internal operation and cause detail: the user asked
// for the run to be bounded and it was — how far it got is all that matters.
func cutShortMessage(err error) (string, bool) {
	var verb string
	switch {
	case errors.Is(err, errs.ErrDeadline):
		verb = "timed out"
	case errors.Is(err, errs.ErrCanceled):
		verb = "canceled"
	default:
		return "", false
	}
	var re *errs.RunError
	if errors.As(err, &re) && re.After > 0 {
		return fmt.Sprintf("%s after %s", verb, re.After.Round(time.Millisecond)), true
	}
	return verb, true
}

// Shared usage strings. Commands must not restate these inline.
const (
	// WorkersUsage is the help text of the -workers flag.
	WorkersUsage = "worker goroutines for the host-parallel engine (<= 0 selects GOMAXPROCS)"
	// BackendUsage is the help text of the -backend flag.
	BackendUsage = "execution backend: sim (BDM simulator), par (host-parallel), seq (sequential)"
	// MetricsUsage is the help text of the -metrics flag.
	MetricsUsage = "write a " + obs.Schema + " JSON metrics document (phase times, counters, comm volume) to this file"
	// PatternUsage is the help text of the -pattern flag.
	PatternUsage = "catalog test image name (e.g. dual-spiral, filled-disc, cross)"
	// RandomUsage is the help text of the -random flag.
	RandomUsage = "random binary image with this foreground density"
	// DarpaUsage is the help text of the -darpa flag.
	DarpaUsage = "use the synthetic DARPA benchmark scene (512x512, 256 greys)"
	// InUsage is the help text of the -in flag.
	InUsage = "read a PGM image from this file"
	// NUsage is the help text of the -n flag.
	NUsage = "image side for generated images"
	// PUsage is the help text of the -p flag.
	PUsage = "number of simulated processors (power of two)"
	// MachineUsage is the help text of the -machine flag.
	MachineUsage = "machine profile: cm5, sp1, sp2, cs2, paragon, ideal"
	// SeedUsage is the help text of the -seed flag.
	SeedUsage = "seed for random images"
	// TimeoutUsage is the help text of the -timeout flag.
	TimeoutUsage = "abort the run after this duration (e.g. 30s; 0 disables) and exit with code 2"
	// StreamUsage is the help text of imgcc's -stream flag.
	StreamUsage = "label the -in PGM out of core in band windows (rectangular and taller-than-65535 images allowed)"
	// BandRowsUsage is the help text of the -band-rows flag.
	BandRowsUsage = "rows per band window for -stream (<= 0 derives from a 4Mi-pixel budget)"
	// OutUsage is the help text of the -out flag.
	OutUsage = "write the dense-renumbered label PGM to this file (-stream only; written atomically, no partial file on failure)"
	// CheckpointUsage is the help text of the -checkpoint flag.
	CheckpointUsage = "durable checkpoint file for -stream: rewritten crash-atomically every -checkpoint-every bands so -resume can continue a killed run"
	// CheckpointEveryUsage is the help text of the -checkpoint-every flag.
	CheckpointEveryUsage = "bands between -checkpoint records (<= 0 selects the default cadence)"
	// ResumeUsage is the help text of the -resume flag.
	ResumeUsage = "resume -stream from the -checkpoint record; output is byte-identical to an uninterrupted run"
	// CensusJSONUsage is the help text of the -census-json flag.
	CensusJSONUsage = "write the -stream census as deterministic JSON to this file (written atomically)"

	// AddrUsage is the help text of imgccd's -addr flag.
	AddrUsage = "listen address for the HTTP server"
	// EnginesUsage is the help text of imgccd's -engines flag.
	EnginesUsage = "concurrent label tasks (runner goroutines, one rented engine each; <= 0 derives from the core budget)"
	// EngineWorkersUsage is the help text of imgccd's -engine-workers flag.
	EngineWorkersUsage = "strip workers per engine (<= 0 selects 1); engines x engine-workers must fit ceil(GOMAXPROCS x oversub)"
	// OversubUsage is the help text of imgccd's -oversub flag.
	OversubUsage = "core budget multiplier: engines x engine-workers may use up to ceil(GOMAXPROCS x this)"
	// QueueUsage is the help text of imgccd's -queue flag.
	QueueUsage = "admission queue depth; requests beyond it are rejected with 429 (<= 0 selects 2 x engines)"
	// RequestDeadlineUsage is the help text of imgccd's -request-deadline flag.
	RequestDeadlineUsage = "default per-request labeling deadline (e.g. 30s; 0 disables); requests may set a tighter deadline_ms"
)

// WorkersFlag registers the canonical -workers flag on fs: name "workers",
// default 0 (meaning GOMAXPROCS at use time). Pass flag.CommandLine from a
// command's main.
func WorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, WorkersUsage)
}

// BackendFlag registers the canonical -backend flag (default "sim").
func BackendFlag(fs *flag.FlagSet) *string {
	return fs.String("backend", "sim", BackendUsage)
}

// MetricsFlag registers the canonical -metrics flag (default "", disabled).
func MetricsFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics", "", MetricsUsage)
}

// PatternFlag registers the canonical -pattern flag (default "", none).
func PatternFlag(fs *flag.FlagSet) *string {
	return fs.String("pattern", "", PatternUsage)
}

// RandomFlag registers the canonical -random flag (default -1, disabled).
func RandomFlag(fs *flag.FlagSet) *float64 {
	return fs.Float64("random", -1, RandomUsage)
}

// DarpaFlag registers the canonical -darpa flag (default false).
func DarpaFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("darpa", false, DarpaUsage)
}

// InFlag registers the canonical -in flag (default "", none).
func InFlag(fs *flag.FlagSet) *string {
	return fs.String("in", "", InUsage)
}

// NFlag registers the canonical -n flag (default 512).
func NFlag(fs *flag.FlagSet) *int {
	return fs.Int("n", 512, NUsage)
}

// PFlag registers the canonical -p flag (default 32).
func PFlag(fs *flag.FlagSet) *int {
	return fs.Int("p", 32, PUsage)
}

// MachineFlag registers the canonical -machine flag (default "cm5").
func MachineFlag(fs *flag.FlagSet) *string {
	return fs.String("machine", "cm5", MachineUsage)
}

// SeedFlag registers the canonical -seed flag (default 1).
func SeedFlag(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, SeedUsage)
}

// TimeoutFlag registers the canonical -timeout flag (default 0, disabled).
func TimeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, TimeoutUsage)
}

// StreamFlag registers the canonical -stream flag (default false).
func StreamFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("stream", false, StreamUsage)
}

// BandRowsFlag registers the canonical -band-rows flag (default 0, derived).
func BandRowsFlag(fs *flag.FlagSet) *int {
	return fs.Int("band-rows", 0, BandRowsUsage)
}

// OutFlag registers the canonical -out flag (default "", none).
func OutFlag(fs *flag.FlagSet) *string {
	return fs.String("out", "", OutUsage)
}

// CheckpointFlag registers the canonical -checkpoint flag (default "",
// disabled).
func CheckpointFlag(fs *flag.FlagSet) *string {
	return fs.String("checkpoint", "", CheckpointUsage)
}

// CheckpointEveryFlag registers the canonical -checkpoint-every flag
// (default 0, meaning the stream package's default cadence).
func CheckpointEveryFlag(fs *flag.FlagSet) *int {
	return fs.Int("checkpoint-every", 0, CheckpointEveryUsage)
}

// ResumeFlag registers the canonical -resume flag (default false).
func ResumeFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("resume", false, ResumeUsage)
}

// CensusJSONFlag registers the canonical -census-json flag (default "",
// disabled).
func CensusJSONFlag(fs *flag.FlagSet) *string {
	return fs.String("census-json", "", CensusJSONUsage)
}

// AddrFlag registers the canonical -addr flag (default ":8080").
func AddrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", ":8080", AddrUsage)
}

// EnginesFlag registers the canonical -engines flag (default 0, derived).
func EnginesFlag(fs *flag.FlagSet) *int {
	return fs.Int("engines", 0, EnginesUsage)
}

// EngineWorkersFlag registers the canonical -engine-workers flag (default
// 0, meaning 1). The name is deliberately distinct from -workers: the
// batch commands' -workers sizes one engine, while the server splits the
// machine across engines.
func EngineWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("engine-workers", 0, EngineWorkersUsage)
}

// OversubFlag registers the canonical -oversub flag (default 1.0).
func OversubFlag(fs *flag.FlagSet) *float64 {
	return fs.Float64("oversub", 1.0, OversubUsage)
}

// QueueFlag registers the canonical -queue flag (default 0, derived).
func QueueFlag(fs *flag.FlagSet) *int {
	return fs.Int("queue", 0, QueueUsage)
}

// RequestDeadlineFlag registers the canonical -request-deadline flag
// (default 0, disabled).
func RequestDeadlineFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("request-deadline", 0, RequestDeadlineUsage)
}

// TimeoutContext resolves a parsed -timeout value into the context bounding
// the command's runs: a background context when d <= 0 (the flag default),
// else a context that expires after d. The caller must defer cancel.
func TimeoutContext(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// Workers normalizes a parsed -workers value: n <= 0 selects
// runtime.GOMAXPROCS(0), anything positive is taken as-is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ImageName returns the metrics-document name of the input the standard
// image-selection flags resolve to, mirroring the precedence of the
// commands' loadImage helpers: an input file beats -darpa beats -pattern
// beats the random fallback.
func ImageName(pattern string, darpa bool, inFile string) string {
	switch {
	case inFile != "":
		return inFile
	case darpa:
		return "darpa"
	case pattern != "":
		return pattern
	}
	return "random"
}

// WriteMetrics validates m and writes it to path as indented JSON. A no-op
// when path is empty (the -metrics flag default), so commands call it
// unconditionally.
func WriteMetrics(path string, m *obs.Metrics) error {
	if path == "" {
		return nil
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("cli: refusing to write invalid metrics: %w", err)
	}
	return obs.WriteFile(path, m)
}

// WriteRunMetrics writes a run's metrics document to path (nothing when
// path is empty) and returns runErr. A failed run still gets its document:
// runErr marks rec aborted first, and since the first mark wins, a run the
// engine already marked keeps the engine's reason. fill sets the context
// fields the recorder does not know.
func WriteRunMetrics(path string, rec *obs.Recorder, runErr error, fill func(*obs.Metrics)) error {
	if path == "" {
		return runErr
	}
	if runErr != nil {
		rec.MarkAborted(runErr.Error())
	}
	m := rec.Snapshot()
	fill(m)
	if err := WriteMetrics(path, m); err != nil {
		if runErr != nil {
			return fmt.Errorf("%w (metrics not written: %v)", runErr, err)
		}
		return err
	}
	return runErr
}

// WriteMetricsList validates every document and writes the list to path as
// one indented JSON array — the multi-configuration form benchjson emits. A
// no-op when path is empty.
func WriteMetricsList(path string, ms []*obs.Metrics) error {
	if path == "" {
		return nil
	}
	for i, m := range ms {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("cli: refusing to write invalid metrics (entry %d): %w", i, err)
		}
	}
	return obs.WriteFileList(path, ms)
}
