package hinch

// This file implements App.Snapshot, the lock-free mid-run state probe
// behind /statusz and the xspcltop dashboard. Every field it reads is
// either atomic (the per-worker counter shards, the engine's iteration
// cursors, the telemetry histograms, stream occupancy, replica widths,
// the tuner's published view) or immutable after NewApp (names, depths,
// configuration), so a snapshot never takes the engine lock and never
// perturbs the run — safe to call from any goroutine, at any rate, on
// either backend.

// Snapshot is a point-in-time view of a running (or finished) App.
// Counters read the same shards the Report folds, so they are live on
// both backends with or without Config.Telemetry, and equal the
// Report's once the run has returned. Histogram values are virtual
// cycles on the sim backend and wall nanoseconds on the real one (see
// Units); histograms and the watchdog fields are zero unless
// Config.Telemetry is set.
type Snapshot struct {
	// Backend is "sim" or "real"; Units names the time domain of every
	// histogram and latency value ("cycles" or "ns").
	Backend string `json:"backend"`
	Units   string `json:"units"`
	Cores   int    `json:"cores"`
	// Telemetry reports whether the histogram/watchdog subsystem is
	// live (Config.Telemetry).
	Telemetry bool `json:"telemetry"`

	// Progress counters.
	Launched  int64 `json:"launched"`  // iterations admitted
	Retired   int64 `json:"retired"`   // iterations retired (cancelled included)
	Processed int64 `json:"processed"` // iterations retired and counted
	Inflight  int64 `json:"inflight"`  // Launched - Retired
	Jobs      int64 `json:"jobs"`      // executed jobs
	Events    int64 `json:"events"`    // reconfiguration events emitted

	// Fault-tolerance and reconfiguration totals.
	Faults       int64 `json:"faults"`
	Retries      int64 `json:"retries"`
	Degradations int64 `json:"degradations"`
	Reconfigs    int64 `json:"reconfigs"`

	// Scheduler counters (real backend).
	Steals     int64 `json:"steals"`
	StealTries int64 `json:"steal_tries"`
	GlobalPops int64 `json:"global_pops"`
	Parks      int64 `json:"parks"`

	// Watchdog state: Stalled is the live /healthz signal, Stalls the
	// number of distinct stall episodes so far.
	Stalled bool  `json:"stalled"`
	Stalls  int64 `json:"stalls"`

	// Cancelled reports that the run's context fired and the pipeline
	// is draining (or drained) early.
	Cancelled bool `json:"cancelled"`

	// IterLat is the launch->retire latency histogram; StealTake and
	// ParkDur profile the scheduler (real backend).
	IterLat   *HistSnap `json:"iter_latency,omitempty"`
	StealTake *HistSnap `json:"steal_take,omitempty"`
	ParkDur   *HistSnap `json:"park_dur,omitempty"`

	// Stages and Streams mirror the pipeline structure with live data.
	Stages  []StageSnap  `json:"stages,omitempty"`
	Streams []StreamSnap `json:"streams,omitempty"`

	// StreamCap is the current stream-FIFO capacity (the autotuner may
	// have resized it); Tune is the autotuner's published state, nil
	// when Config.Autotune is off or no epoch has fired yet.
	StreamCap int       `json:"stream_cap"`
	Tune      *TuneView `json:"tune,omitempty"`
}

// StageSnap is one task's live state: its current replica width and
// merged service-time histogram. Jobs is exact on the sim backend and
// a sampling estimate (count << tmSampleShift) on the real one.
type StageSnap struct {
	Name  string   `json:"name"`
	Width int      `json:"width"`
	Jobs  int64    `json:"jobs"`
	Svc   HistSnap `json:"svc"`
}

// StreamSnap is one stream's live state: current occupancy, the
// high-water mark, and the occupancy histogram sampled at every buffer
// acquire.
type StreamSnap struct {
	Name      string   `json:"name"`
	Depth     int      `json:"depth"`
	Occupancy int      `json:"occupancy"`
	HighWater int      `json:"high_water"`
	Occ       HistSnap `json:"occ"`
}

// Snapshot captures the App's live state. Safe to call from any
// goroutine while Run executes (and before or after it); it never
// blocks the run.
func (a *App) Snapshot() Snapshot {
	e := a.eng
	s := Snapshot{
		Backend:      "sim",
		Units:        "cycles",
		Cores:        a.cfg.Cores,
		Events:       a.metrics.eventsEmitted.Load(),
		Degradations: a.metrics.degradations.Load(),
		Reconfigs:    a.metrics.reconfigs.Load(),
	}
	if a.cfg.Backend == BackendReal {
		s.Backend = "real"
		s.Units = "ns"
	}
	if e == nil {
		return s
	}
	// Cursors oldest first: processed <= retired <= launched holds at
	// every instant, so reading them in this order keeps Inflight >= 0.
	s.Processed = e.processed.Load()
	s.Retired = e.retireNext.Load()
	s.Launched = e.nextLaunch.Load()
	s.Inflight = s.Launched - s.Retired
	_, total := e.foldCounters()
	s.Jobs, s.Faults, s.Retries = total.Jobs, total.Faults, total.Retries
	ss := e.schedStats()
	s.Steals, s.StealTries, s.GlobalPops, s.Parks = ss.Steals, ss.StealAttempts, ss.GlobalPops, ss.Parks
	s.StreamCap = int(e.bufCap.Load())
	s.Cancelled = e.cancelled.Load()
	if e.tu != nil {
		s.Tune = e.tu.pub.Load()
	}

	tm := e.tm
	if tm != nil {
		s.Telemetry = true
		s.Stalled = tm.stalled.Load()
		s.Stalls = tm.stalls.Load()
		il := tm.iterLat.snap()
		s.IterLat = &il
		if st := tm.stealTake.snap(); st.Count > 0 {
			s.StealTake = &st
		}
		if pd := tm.parkDur.snap(); pd.Count > 0 {
			s.ParkDur = &pd
		}
	}

	for _, t := range a.plan.Tasks {
		st := StageSnap{
			Name:  t.Name,
			Width: int(e.widths[t.ID].Load()),
		}
		if tm != nil {
			st.Svc = tm.stageHist(t.ID)
			st.Jobs = tm.stageJobs(st.Svc.Count)
		}
		s.Stages = append(s.Stages, st)
	}
	// The engine owns the buffers: every stream has one slot per
	// buffer set, so all streams share one occupancy.
	sn := StreamSnap{
		Depth:     a.cfg.PipelineDepth,
		Occupancy: int(e.bufActive.Load()),
		HighWater: int(e.bufHigh.Load()),
	}
	if tm != nil {
		sn.Occ = tm.occ.snap()
	}
	for _, str := range a.streamList {
		sn.Name = str.Name()
		s.Streams = append(s.Streams, sn)
	}
	return s
}
