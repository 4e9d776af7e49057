package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/topalign"
)

// Config controls a cluster run.
type Config struct {
	// Top is the algorithm configuration. Params.Exch must be one of
	// the embedded matrices (scoring.ByName) so slaves can reconstruct
	// it from its name.
	Top topalign.Config
	// Speculative selects the paper's acceptance rule (accept the head
	// of the queue while results are still in flight). Off = strict
	// mode, bit-identical to the sequential algorithm.
	Speculative bool
	// TaskTimeout bounds how long the master waits for a dispatched
	// task before speculatively re-sending it to an idle slot on
	// another slave (the straggler defence). Whichever copy answers
	// first wins; the laggard's result is deduplicated, so strict-mode
	// determinism is unaffected. 0 disables re-dispatch.
	TaskTimeout time.Duration
	// Metrics, when non-nil, receives cluster telemetry (per-rank
	// dispatch/retry/duplicate counters, live-slave gauge, rows served)
	// and the engine counters of Top.Counters, bound under the names in
	// DESIGN.md section 8.
	Metrics *obs.Registry
	// Spans, when non-nil, records the run's request-scoped trace: a
	// cluster.run span on the master, one cluster.dispatch span per
	// task sent, cluster.stall spans for straggler waits, and the
	// re-based slave.* spans shipped back inside results. The run's
	// trace ID travels to every slave in the setup message.
	Spans *trace.Recorder
	// SpanParent, when non-zero, parents the cluster.run span (the
	// serving layer passes its engine span here).
	SpanParent trace.SpanID
}

// RunMaster drives a cluster computation from rank 0: it ships the
// sequence and configuration to every slave, farms out alignment tasks,
// accepts top alignments (including the sequential traceback, which
// runs on the master as in the paper), and broadcasts triangle updates.
// It returns when the requested top alignments are found or no further
// alignment reaches MinScore.
//
// The run tolerates partial failure: a dead slave's tasks are requeued,
// overdue tasks are speculatively re-dispatched (TaskTimeout),
// replacement workers that join mid-run (mpi.TagJoin) are provisioned
// with the setup and the accepted-top history, and if every slave dies
// the master finishes the remaining queue with its own engine instead
// of failing the run.
func RunMaster(comm mpi.Comm, s []byte, cfg Config) (*topalign.Result, error) {
	if comm.Rank() != 0 {
		return nil, fmt.Errorf("cluster: RunMaster called on rank %d", comm.Rank())
	}
	// The cluster.run span wraps the whole distributed computation; it is
	// opened before engine creation so the engine's accept spans (which
	// run on the master, rank 0) nest under it.
	runSpan := cfg.Spans.Start(cfg.SpanParent, "cluster.run")
	runSpan.SetRank(0)
	defer runSpan.End()
	cfg.Top.Spans = cfg.Spans
	cfg.Top.SpanParent = runSpan.ID()
	cfg.Top.SpanRank = 0
	e, err := topalign.NewEngine(s, cfg.Top)
	if err != nil {
		return nil, err
	}
	cfg.Top.Counters.Bind(cfg.Metrics)
	m := &master{
		comm:    comm,
		e:       e,
		cfg:     cfg,
		queue:   topalign.InitialQueue(e),
		flights: make(map[int]*flight),
		owed:    make(map[int]map[int]bool),
		live:    make(map[int]bool),
		runSpan: runSpan.ID(),
	}
	return m.run(s)
}

// flight is one task currently dispatched to at least one slave.
type flight struct {
	t        *topalign.Task
	owners   map[int]bool    // slave ranks working on the task
	deadline time.Time       // when the task becomes a straggler
	spans    []*trace.Active // open cluster.dispatch spans, one per copy
	sentAt   int64           // recorder time of the latest dispatch
}

type master struct {
	comm    mpi.Comm
	e       *topalign.Engine
	cfg     Config
	queue   *topalign.TaskQueue
	sc      topalign.Scratch     // arenas for the master's own tracebacks and the local fallback
	flights map[int]*flight      // task R -> outstanding dispatch
	slots   []int                // idle worker slots (slave ranks, FIFO)
	owed    map[int]map[int]bool // slave rank -> task Rs dispatched to it, not yet credited back
	live    map[int]bool
	done    bool
	setup   []byte       // encoded msgSetup, re-shipped to late joiners
	topHist [][]byte     // encoded msgTop per accepted top, for rejoin replay
	runSpan trace.SpanID // the cluster.run span, parent of all dispatches
}

// Registry names used by the master (DESIGN.md section 8). Per-rank
// counters append "/rank<N>".
const (
	metricDispatchTotal   = "cluster/dispatch/total"
	metricDispatchRank    = "cluster/dispatch/rank%d"
	metricRedispatchTotal = "cluster/redispatch/total"
	metricRedispatchRank  = "cluster/redispatch/rank%d"
	metricDuplicateTotal  = "cluster/duplicate/total"
	metricDuplicateRank   = "cluster/duplicate/rank%d"
	metricRowsServed      = "cluster/rows_served"
	metricDeaths          = "cluster/deaths"
	metricRejoins         = "cluster/rejoins"
	metricLiveSlaves      = "cluster/live_slaves"
)

// bump increments a named counter in the registry (nil-safe).
func (m *master) bump(name string) {
	m.cfg.Metrics.Counter(name).Inc()
}

// markLive refreshes the live-slave gauge.
func (m *master) markLive() {
	m.cfg.Metrics.Gauge(metricLiveSlaves).Set(int64(len(m.live)))
}

func (m *master) run(s []byte) (*topalign.Result, error) {
	cfg := m.e.Config()
	m.setup = msgSetup{
		Seq:     s,
		Matrix:  cfg.Params.Exch.Name(),
		GapOpen: cfg.Params.Gap.Open,
		GapExt:  cfg.Params.Gap.Ext,
		Lanes:   uint8(cfg.GroupLanes),
		Trace:   m.cfg.Spans.TraceID(),
	}.encode()
	size := m.comm.Size() // snapshot: later joiners arrive via TagJoin
	for rank := 1; rank < size; rank++ {
		if err := m.comm.Send(rank, tagSetup, m.setup); err != nil {
			return nil, fmt.Errorf("cluster: setup to rank %d: %w", rank, err)
		}
		m.live[rank] = true
	}
	m.markLive()

	// Pump Recv into a channel so the scheduler can also react to the
	// straggler ticker. The quit channel stops the pump when the run
	// ends; a Recv blocked at that point unblocks once the caller
	// closes the Comm.
	type recvItem struct {
		msg mpi.Message
		err error
	}
	msgs := make(chan recvItem)
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		for {
			msg, err := m.comm.Recv()
			select {
			case msgs <- recvItem{msg, err}:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	var tickC <-chan time.Time
	if m.cfg.TaskTimeout > 0 {
		tick := time.NewTicker(max(m.cfg.TaskTimeout/4, time.Millisecond))
		defer tick.Stop()
		tickC = tick.C
	}

	for !m.done {
		select {
		case it := <-msgs:
			if it.err != nil {
				m.broadcast(tagStop, nil) // best effort: release any live slave
				return nil, fmt.Errorf("cluster: master recv: %w", it.err)
			}
			if err := m.handle(it.msg); err != nil {
				m.broadcast(tagStop, nil)
				return nil, err
			}
		case <-tickC:
			m.redispatchStale()
		}
	}
	m.broadcast(tagStop, nil)
	return m.e.Result(), nil
}

func (m *master) handle(msg mpi.Message) error {
	switch msg.Tag {
	case tagReady:
		m.slots = append(m.slots, msg.From)
	case tagResult:
		res, err := decodeResult(msg.Data)
		if err != nil {
			return err
		}
		if err := m.handleResult(msg.From, res); err != nil {
			return err
		}
		// Credit an idle slot only for a dispatch actually made to this
		// rank and not yet credited back: a wire-duplicated result must
		// not mint a phantom slot (the master would over-dispatch past
		// the slave's thread count and wedge its receive loop), while
		// the losing copy of a speculative re-dispatch still frees its
		// sender.
		if o := m.owed[msg.From]; o[int(res.R)] {
			delete(o, int(res.R))
			m.slots = append(m.slots, msg.From)
		}
	case tagRowReq:
		req, err := decodeRow(msg.Data) // msgRow with empty Row doubles as request
		if err != nil {
			return err
		}
		row, ok := m.e.OrigRows().Get(int(req.R))
		if !ok {
			return fmt.Errorf("cluster: slave %d requested unknown row %d", msg.From, req.R)
		}
		m.bump(metricRowsServed)
		return m.comm.Send(msg.From, tagRow, msgRow{R: req.R, Row: row}.encode())
	case tagRefused:
		return fmt.Errorf("cluster: slave %d refused setup: %s", msg.From, msg.Data)
	case mpi.TagJoin:
		if !m.live[msg.From] {
			m.admitSlave(msg.From)
		}
	case mpi.TagDown:
		m.handleDown(msg.From)
	default:
		return fmt.Errorf("cluster: master got unexpected tag %d from %d", msg.Tag, msg.From)
	}
	return m.step()
}

// admitSlave provisions a worker that joined after the initial world:
// the setup plus a replay of every accepted top alignment, bringing its
// triangle replica to the current version. Send failures demote the
// newcomer to dead; they never abort the run.
func (m *master) admitSlave(rank int) {
	m.live[rank] = true
	m.bump(metricRejoins)
	m.markLive()
	if err := m.comm.Send(rank, tagSetup, m.setup); err != nil {
		m.handleDown(rank)
		return
	}
	for _, upd := range m.topHist {
		if err := m.comm.Send(rank, tagTop, upd); err != nil {
			m.handleDown(rank)
			return
		}
	}
}

// handleResult folds a slave's result back into the queue.
func (m *master) handleResult(from int, res msgResult) error {
	R := int(res.R)
	if R < 1 || R >= m.e.Len() {
		return fmt.Errorf("cluster: result for out-of-range split %d from slave %d", res.R, from)
	}
	fl := m.flights[R]
	if fl == nil {
		// Duplicate: a speculative re-dispatch (or a task requeued after
		// its slave was presumed dead) already delivered this result.
		m.bump(metricDuplicateTotal)
		m.bump(fmt.Sprintf(metricDuplicateRank, from))
		return nil
	}
	delete(m.flights, R)
	for _, sp := range fl.spans {
		sp.End()
	}
	t := fl.t
	stale := !res.First && int(res.Version) < m.e.NumTopsFound()
	if stale {
		// Computed against a replica that has since advanced: the
		// paper's speculation overhead — the score re-enters the queue
		// as a stale upper bound rather than being discarded.
		m.e.Config().Counters.AddSpecWaste()
	}
	m.absorbSpans(from, res, stale)

	if res.First {
		// Store the original rows (one per member in group mode).
		mlen := m.e.Len()
		for i, row := range res.Rows {
			r := R + i
			if r > mlen-1 {
				return fmt.Errorf("cluster: first-result row for invalid split %d", r)
			}
			if len(row) != mlen-r {
				return fmt.Errorf("cluster: first-result row for split %d has %d entries, want %d",
					r, len(row), mlen-r)
			}
			m.e.OrigRows().Put(r, row)
		}
	}
	lanes := m.e.Config().GroupLanes
	if len(res.Scores) != lanes {
		return fmt.Errorf("cluster: result for task %d has %d scores, want %d", res.R, len(res.Scores), lanes)
	}
	// The task operation ran on the slave's engine; what it measured is
	// counted here by the call a local driver makes, so cluster runs
	// report the same statistics as the local engines. The thread's CPU
	// crosses the boundary beside it.
	m.e.Count(t, res.Work)
	m.e.Config().Counters.AddCPU(res.CPUNanos)
	t.Score = slices.Max(res.Scores)
	if lanes > 1 {
		t.MemberScores = res.Scores
	}
	t.AlignedWith = int(res.Version)
	m.queue.Push(t)
	return nil
}

// absorbSpans folds a slave's shipped spans into the run's trace. The
// spans arrive with Start times on the slave's local monotonic timeline;
// they are re-based onto the master's collector timeline by assuming the
// slave encoded them (stamping SlaveNow) half a heartbeat round trip
// before the master received them. The residual error — scheduling
// noise, RTT asymmetry — is nanoseconds-to-microseconds against
// millisecond spans, and the critical-path analyzer clamps children
// into parents, so it cannot produce negative attributions. Span loss
// or corruption never fails a run.
func (m *master) absorbSpans(from int, res msgResult, stale bool) {
	rec := m.cfg.Spans
	if rec == nil || len(res.Spans) == 0 {
		return
	}
	spans, err := trace.DecodeSpans(res.Spans)
	if err != nil {
		return
	}
	offset := rec.Now() - mpi.HeartbeatRTT(m.cfg.Metrics, from)/2 - res.SlaveNow
	for _, sp := range spans {
		sp.Start += offset
		if stale && sp.Name == "slave.kernel" {
			// The kernel ran against a replica that has since advanced:
			// this is the paper's speculation overhead, and the trace
			// should attribute it as waste rather than useful work.
			sp.Name = "slave.kernel.wasted"
		}
		rec.Add(sp)
	}
}

// handleDown removes a dead slave and requeues every task it alone was
// working on; tasks also owned by a surviving slave stay in flight.
func (m *master) handleDown(rank int) {
	if !m.live[rank] {
		return
	}
	delete(m.live, rank)
	delete(m.owed, rank)
	for R, fl := range m.flights {
		if !fl.owners[rank] {
			continue
		}
		delete(fl.owners, rank)
		if len(fl.owners) == 0 {
			m.queue.Push(fl.t) // unchanged: still a valid (stale) upper bound
			delete(m.flights, R)
			for _, sp := range fl.spans {
				sp.End()
			}
		}
	}
	m.bump(metricDeaths)
	m.markLive()
	// drop the dead slave's idle slots
	keep := m.slots[:0]
	for _, s := range m.slots {
		if s != rank {
			keep = append(keep, s)
		}
	}
	m.slots = keep
}

// step is the master's scheduler: it asks topalign.Decide about the
// queue head and accepts, dispatches or terminates until the next move
// needs a message — a result, an idle slot — to arrive first.
func (m *master) step() error {
	cfg := m.e.Config()
	for !m.done {
		tops := m.e.NumTopsFound()
		switch topalign.Decide(cfg, m.queue.Peek(), tops) {
		case topalign.Stop:
			// A result still in flight may land above MinScore; once the
			// last top is accepted none of them matters.
			m.done = len(m.flights) == 0 || tops == cfg.NumTops
			return nil
		case topalign.Accept:
			if !m.cfg.Speculative && len(m.flights) > 0 {
				return nil // strict mode: every result lands first
			}
			if err := m.accept(); err != nil {
				return err
			}
		case topalign.Realign:
			if len(m.live) == 0 {
				// Graceful degradation: no slaves left (whether we noticed
				// via TagDown or via a failed send), so finish the queue
				// with the master's own engine rather than abandoning the run.
				return m.finishLocally()
			}
			if len(m.slots) == 0 {
				return nil
			}
			slave := m.slots[0]
			m.slots = m.slots[1:]
			if !m.live[slave] {
				continue // a slot announced by a slave since declared dead
			}
			if t := m.queue.Pop(); !m.dispatch(slave, t, nil) {
				m.queue.Push(t)
			}
		}
	}
	return nil
}

// accept accepts the queue head as the next top alignment — the
// sequential traceback runs here, on the master, as in the paper — and
// broadcasts the pairs it marked to every triangle replica.
func (m *master) accept() error {
	t := m.queue.Pop()
	top, err := m.e.Accept(t, &m.sc)
	if err != nil {
		return err
	}
	m.queue.Push(t)
	upd := msgTop{Version: int32(m.e.NumTopsFound())}
	upd.PairsI = make([]int32, len(top.Pairs))
	upd.PairsJ = make([]int32, len(top.Pairs))
	for i, p := range top.Pairs {
		upd.PairsI[i] = int32(p.I)
		upd.PairsJ[i] = int32(p.J)
	}
	enc := upd.encode()
	m.topHist = append(m.topHist, enc)
	m.broadcast(tagTop, enc)
	return nil
}

// dispatch sends task t to slave and records the ownership. When fl is
// nil a new flight is created (first dispatch); otherwise the slave is
// added to the existing flight (speculative re-dispatch). Returns false
// if the send failed, in which case the slave is demoted to dead and
// the flight state is unchanged.
func (m *master) dispatch(slave int, t *topalign.Task, fl *flight) bool {
	job := msgJob{R: int32(t.R), First: t.AlignedWith < 0}
	// The dispatch span covers send-to-result on the master's timeline;
	// its ID travels in the job so the slave's spans parent under it.
	dspan := m.cfg.Spans.Start(m.runSpan, "cluster.dispatch")
	dspan.SetRank(int32(slave))
	dspan.SetArg(int64(t.R))
	job.Span = dspan.ID()
	if err := m.comm.Send(slave, tagJob, job.encode()); err != nil {
		// treat as dead; the TagDown will follow, but clean up now
		dspan.End()
		m.handleDown(slave)
		return false
	}
	// Per-rank counter first, total second: a concurrent /metrics scrape
	// then always sees sum(ranks) >= total, never a phantom deficit.
	m.bump(fmt.Sprintf(metricDispatchRank, slave))
	m.bump(metricDispatchTotal)
	if fl == nil {
		fl = &flight{t: t, owners: make(map[int]bool)}
		m.flights[t.R] = fl
	} else {
		// Speculative re-dispatch of a straggler's task: tally the retry
		// globally and against the rank that received the extra copy.
		m.bump(metricRedispatchTotal)
		m.bump(fmt.Sprintf(metricRedispatchRank, slave))
	}
	if dspan != nil {
		fl.spans = append(fl.spans, dspan)
	}
	fl.sentAt = m.cfg.Spans.Now()
	fl.owners[slave] = true
	if m.owed[slave] == nil {
		m.owed[slave] = make(map[int]bool)
	}
	m.owed[slave][t.R] = true
	if m.cfg.TaskTimeout > 0 {
		fl.deadline = time.Now().Add(m.cfg.TaskTimeout)
	}
	return true
}

// redispatchStale speculatively re-sends every overdue task to an idle
// slot on a slave not already working on it. The original owner keeps
// computing; handleResult deduplicates whichever copy loses the race.
func (m *master) redispatchStale() {
	if m.cfg.TaskTimeout <= 0 || m.done {
		return
	}
	now := time.Now()
	for R, fl := range m.flights {
		if now.Before(fl.deadline) {
			continue
		}
		slot := -1
		for i, s := range m.slots {
			if m.live[s] && !fl.owners[s] {
				slot = i
				break
			}
		}
		if slot < 0 {
			// No eligible slot right now; check again next tick. The
			// deadline push keeps one slow scan from re-triggering.
			fl.deadline = now.Add(m.cfg.TaskTimeout)
			continue
		}
		// Record the straggler stall as a completed span: from the moment
		// the task went overdue to this re-dispatch. (sentAt advances on
		// re-dispatch, so repeated stalls of one task never overlap.)
		if rec := m.cfg.Spans; rec != nil {
			stallStart := fl.sentAt + m.cfg.TaskTimeout.Nanoseconds()
			if recNow := rec.Now(); stallStart < recNow {
				rec.Add(trace.Span{
					ID:     trace.NewSpanID(),
					Parent: m.runSpan,
					Name:   "cluster.stall",
					Rank:   0,
					Start:  stallStart,
					Dur:    recNow - stallStart,
					Arg:    int64(R),
				})
			}
		}
		slave := m.slots[slot]
		m.slots = append(m.slots[:slot], m.slots[slot+1:]...)
		m.dispatch(slave, fl.t, fl)
	}
}

// finishLocally drains the remaining queue with the master's own engine
// — topalign.Run, the sequential loop — so a run whose every slave died
// still completes, degraded to single-node speed. Requeued tasks keep
// their stale scores as upper bounds, exactly as a slave result would,
// so strict-mode results remain bit-identical. The run ends here, so
// the tops accepted locally are not added to the rejoin history: no
// worker can be admitted after done.
func (m *master) finishLocally() error {
	m.done = true
	return topalign.Run(m.e, m.queue, &m.sc)
}

func (m *master) broadcast(tag mpi.Tag, data []byte) {
	for rank := range m.live {
		// best effort; a failed send surfaces as TagDown later
		_ = m.comm.Send(rank, tag, data)
	}
}
