package cluster

import (
	"fmt"
	"slices"

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
	// Metrics, when non-nil, receives cluster telemetry (per-rank
	// dispatch counters, rows served) and the engine counters of
	// Top.Counters, bound under the names in DESIGN.md section 8.
	Metrics *obs.Registry
	// Spans, when non-nil, records the run's request-scoped trace: a
	// cluster.run span on the master, one cluster.dispatch span per
	// task sent, and the re-based slave.* spans shipped back inside
	// results. The run's trace ID travels to every slave in the setup
	// message.
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
// As in the paper, failures are not recovered from: a lost slave
// (mpi.TagDown), a slave's refusal or failure, or a result for a task
// that is not in flight on its sender fails the run with an error
// naming the rank, after the master broadcasts stop.
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
		flights: make(map[int]flight),
		runSpan: runSpan.ID(),
	}
	res, err := m.run(s)
	m.broadcast(tagStop, nil) // on failure too: release every slave
	return res, err
}

// flight is one task dispatched to a slave, awaiting its result.
type flight struct {
	t     *topalign.Task
	slave int
	span  *trace.Active // the open cluster.dispatch span
}

type master struct {
	comm    mpi.Comm
	e       *topalign.Engine
	cfg     Config
	queue   *topalign.TaskQueue
	sc      topalign.Scratch // arenas for the master's own tracebacks
	flights map[int]flight   // task R -> outstanding dispatch
	slots   []int            // idle worker slots (slave ranks, FIFO)
	done    bool
	runSpan trace.SpanID // the cluster.run span, parent of all dispatches
}

// Registry names used by the master (DESIGN.md section 8).
const (
	metricDispatchTotal = "cluster/dispatch/total"
	metricDispatchRank  = "cluster/dispatch/rank%d"
	metricRowsServed    = "cluster/rows_served"
)

// bump increments a named counter in the registry (nil-safe).
func (m *master) bump(name string) {
	m.cfg.Metrics.Counter(name).Inc()
}

func (m *master) run(s []byte) (*topalign.Result, error) {
	cfg := m.e.Config()
	setup := msgSetup{
		Seq:     s,
		Matrix:  cfg.Params.Exch.Name(),
		GapOpen: cfg.Params.Gap.Open,
		GapExt:  cfg.Params.Gap.Ext,
		Lanes:   uint8(cfg.GroupLanes),
		Trace:   m.cfg.Spans.TraceID(),
	}.encode()
	for rank := 1; rank < m.comm.Size(); rank++ {
		if err := m.comm.Send(rank, tagSetup, setup); err != nil {
			return nil, fmt.Errorf("cluster: setup to slave %d: %w", rank, err)
		}
	}
	for !m.done {
		msg, err := m.comm.Recv()
		if err != nil {
			return nil, fmt.Errorf("cluster: master recv: %w", err)
		}
		if err := m.handle(msg); err != nil {
			return nil, err
		}
	}
	return m.e.Result(), nil
}

func (m *master) handle(msg mpi.Message) error {
	switch msg.Tag {
	case tagReady:
		m.slots = append(m.slots, msg.From)
	case tagResult:
		res, err := decodeResult(msg.Data)
		if err != nil {
			return fmt.Errorf("cluster: result from slave %d: %w", msg.From, err)
		}
		if err := m.handleResult(msg.From, res); err != nil {
			return err
		}
		m.slots = append(m.slots, msg.From)
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
		return fmt.Errorf("cluster: slave %d refused the run: %s", msg.From, msg.Data)
	case mpi.TagDown:
		return fmt.Errorf("cluster: lost slave %d", msg.From)
	default:
		return fmt.Errorf("cluster: master got unexpected tag %d from %d", msg.Tag, msg.From)
	}
	return m.step()
}

// handleResult folds a slave's result back into the queue.
func (m *master) handleResult(from int, res msgResult) error {
	R := int(res.R)
	fl, ok := m.flights[R]
	if !ok || fl.slave != from {
		return fmt.Errorf("cluster: slave %d sent a result for split %d, which is not in flight there", from, res.R)
	}
	t := fl.t
	lanes := m.e.Config().GroupLanes
	if len(res.Scores) != lanes {
		return fmt.Errorf("cluster: slave %d sent %d scores for split %d, want %d", from, len(res.Scores), R, lanes)
	}
	if first := t.AlignedWith < 0; res.First != first {
		return fmt.Errorf("cluster: slave %d answered split %d with first=%v, dispatched with first=%v", from, R, res.First, first)
	}
	// A first alignment returns the original bottom row of every member.
	rows := 0
	if res.First {
		rows = min(R+lanes-1, m.e.NumSplits()) - R + 1
	}
	if len(res.Rows) != rows {
		return fmt.Errorf("cluster: slave %d sent %d rows for split %d, want %d", from, len(res.Rows), R, rows)
	}
	mlen := m.e.Len()
	for i, row := range res.Rows {
		if r := R + i; len(row) != mlen-r {
			return fmt.Errorf("cluster: slave %d sent a row for split %d with %d entries, want %d",
				from, r, len(row), mlen-r)
		}
	}
	delete(m.flights, R)
	fl.span.End()
	for i, row := range res.Rows {
		m.e.OrigRows().Put(R+i, row)
	}
	stale := !res.First && int(res.Version) < m.e.NumTopsFound()
	if stale {
		// Computed against a replica that has since advanced: the
		// paper's speculation overhead — the score re-enters the queue
		// as a stale upper bound rather than being discarded.
		m.e.Config().Counters.AddSpecWaste()
	}
	m.absorbSpans(res, stale)

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
// they are re-based onto the master's collector timeline by taking the
// slave's encode time (SlaveNow) to be the master's receive time. Over
// channels that is exact; over TCP the error is the one-way latency,
// microseconds against millisecond spans, and the critical-path
// analyzer clamps children into parents, so it cannot produce negative
// attributions. Span loss or corruption never fails a run.
func (m *master) absorbSpans(res msgResult, stale bool) {
	rec := m.cfg.Spans
	if rec == nil || len(res.Spans) == 0 {
		return
	}
	spans, err := trace.DecodeSpans(res.Spans)
	if err != nil {
		return
	}
	offset := rec.Now() - res.SlaveNow
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
			if len(m.slots) == 0 {
				return nil
			}
			slave := m.slots[0]
			m.slots = m.slots[1:]
			if err := m.dispatch(slave, m.queue.Pop()); err != nil {
				return err
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
	m.broadcast(tagTop, upd.encode())
	return nil
}

// dispatch sends task t to slave and records the flight.
func (m *master) dispatch(slave int, t *topalign.Task) error {
	job := msgJob{R: int32(t.R), First: t.AlignedWith < 0}
	// The dispatch span covers send-to-result on the master's timeline;
	// its ID travels in the job so the slave's spans parent under it.
	dspan := m.cfg.Spans.Start(m.runSpan, "cluster.dispatch")
	dspan.SetRank(int32(slave))
	dspan.SetArg(int64(t.R))
	job.Span = dspan.ID()
	if err := m.comm.Send(slave, tagJob, job.encode()); err != nil {
		dspan.End()
		return fmt.Errorf("cluster: job for split %d to slave %d: %w", t.R, slave, err)
	}
	// Per-rank counter first, total second: a concurrent /metrics scrape
	// then always sees sum(ranks) >= total, never a phantom deficit.
	m.bump(fmt.Sprintf(metricDispatchRank, slave))
	m.bump(metricDispatchTotal)
	m.flights[t.R] = flight{t: t, slave: slave, span: dspan}
	return nil
}

// broadcast sends to every slave, best effort: a slave that is gone
// surfaces as TagDown, and a stop needs no answer.
func (m *master) broadcast(tag mpi.Tag, data []byte) {
	for rank := 1; rank < m.comm.Size(); rank++ {
		_ = m.comm.Send(rank, tag, data)
	}
}
