// Package trace records per-iteration phase timings of a training run
// and exports them for analysis — the reproduction's equivalent of the
// profiling the paper used to produce its Fig. 11 time breakdown.
//
// The recorder consumes wall-clock phase durations from the trainer's
// phase hook (compute = forward+backward, aggregate = sparsification +
// communication); summaries and CSV export make per-phase behaviour
// inspectable without attaching a profiler.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Phase labels one timed section of a training iteration.
type Phase string

// Phases recorded by the trainer hook.
const (
	PhaseCompute   Phase = "compute"   // forward + backward passes
	PhaseAggregate Phase = "aggregate" // sparsification + gradient exchange
	PhaseUpdate    Phase = "update"    // momentum + weight update
)

// Event is one timed phase of one iteration.
type Event struct {
	Iter     int
	Phase    Phase
	Duration time.Duration
}

// Recorder accumulates events. It is safe for concurrent use: in an
// in-process cluster every rank's trainer runs its phase hook on its own
// goroutine, so one recorder shared by several ranks' hooks records
// concurrently, and a reader may take Totals while training records.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event.
func (r *Recorder) Record(iter int, phase Phase, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Iter: iter, Phase: phase, Duration: d})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Totals returns the summed duration per phase.
func (r *Recorder) Totals() map[Phase]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Phase]time.Duration)
	for _, e := range r.events {
		out[e.Phase] += e.Duration
	}
	return out
}

// Fractions returns each phase's share of total recorded time.
func (r *Recorder) Fractions() map[Phase]float64 {
	totals := r.Totals()
	var sum time.Duration
	for _, d := range totals {
		sum += d
	}
	out := make(map[Phase]float64, len(totals))
	if sum == 0 {
		return out
	}
	for p, d := range totals {
		out[p] = float64(d) / float64(sum)
	}
	return out
}

// WriteCSV emits "iter,phase,nanoseconds" rows sorted by (iter, phase).
func (r *Recorder) WriteCSV(w io.Writer) error {
	r.mu.Lock()
	events := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(events, func(i, j int) bool {
		if events[i].Iter != events[j].Iter {
			return events[i].Iter < events[j].Iter
		}
		return events[i].Phase < events[j].Phase
	})
	if _, err := io.WriteString(w, "iter,phase,ns\n"); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, e := range events {
		row := strconv.Itoa(e.Iter) + "," + string(e.Phase) + "," +
			strconv.FormatInt(e.Duration.Nanoseconds(), 10) + "\n"
		if _, err := io.WriteString(w, row); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	return nil
}

// Summary renders a human-readable per-phase report.
func (r *Recorder) Summary() string {
	totals := r.Totals()
	fracs := r.Fractions()
	phases := make([]Phase, 0, len(totals))
	for p := range totals {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	s := ""
	for _, p := range phases {
		s += fmt.Sprintf("%-10s %12v  %5.1f%%\n", p, totals[p].Round(time.Microsecond), 100*fracs[p])
	}
	return s
}
