package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
	"repro/internal/scoring"
	"repro/internal/topalign"
	"repro/internal/triangle"
)

// ErrMasterDown reports that a slave lost its master connection mid-run
// (as opposed to a clean stop).
var ErrMasterDown = errors.New("cluster: master connection lost")

// SlaveOptions configures a slave rank beyond its thread count.
type SlaveOptions struct {
	// Threads is the number of worker goroutines (minimum 1).
	Threads int
	// Metrics, when non-nil, receives slave telemetry: jobs served,
	// row-request counts and fetch latencies (cluster/row_fetch_ns).
	Metrics *obs.Registry
}

// RunSlave runs a slave rank: it waits for the master's setup, then
// serves alignment jobs with `threads` worker goroutines (>= 1) sharing
// one triangle replica and one original-row cache — one slave process
// per SMP node, several threads per process, as in the paper.
// It returns when the master sends stop or the connection drops. A
// setup it cannot use, or a job that fails, is reported to the master
// (tagRefused, with the error's text), which fails the run and sends
// stop; RunSlave then returns that error.
func RunSlave(comm mpi.Comm, threads int) error {
	return RunSlaveOpts(comm, SlaveOptions{Threads: threads})
}

// RunSlaveOpts is RunSlave with explicit options.
func RunSlaveOpts(comm mpi.Comm, opts SlaveOptions) error {
	threads := opts.Threads
	if comm.Rank() == 0 {
		return fmt.Errorf("cluster: RunSlave called on rank 0")
	}
	if threads < 1 {
		threads = 1
	}
	msg, err := comm.Recv()
	if err != nil {
		return fmt.Errorf("cluster: waiting for setup: %w", err)
	}
	if msg.Tag == tagStop {
		return nil
	}
	if msg.Tag != tagSetup {
		return fmt.Errorf("cluster: expected setup, got tag %d", msg.Tag)
	}
	setup, err := decodeSetup(msg.Data)
	if err != nil {
		comm.Send(0, tagRefused, []byte(err.Error()))
		return err
	}
	sl, err := newSlave(comm, setup)
	if err != nil {
		comm.Send(0, tagRefused, []byte(err.Error()))
		return err
	}
	sl.reg = opts.Metrics
	return sl.run(threads)
}

// replicaState is the atomically-published triangle replica.
type replicaState struct {
	tri     *triangle.Triangle
	version int
}

type slave struct {
	comm mpi.Comm
	// e is an engine like the master's whose row-store miss is a fetch:
	// it never accepts, so its triangle stays replica version 0 and its
	// RowStore is the slave's cache of original rows.
	e   *topalign.Engine
	reg *obs.Registry

	// Tracing: when the setup carries a non-zero trace ID, each job
	// records slave.job/slave.kernel/slave.row_fetch spans with Start
	// times on the slave's own monotonic timeline (ns since epoch) and
	// ships them back inside the result for the master to re-base.
	trace trace.TraceID
	epoch time.Time

	replica atomic.Pointer[replicaState]

	jobs chan msgJob
	quit chan struct{} // closed when the receive loop exits

	mu         sync.Mutex
	rowWaiters map[int]chan []int32
}

func newSlave(comm mpi.Comm, setup msgSetup) (*slave, error) {
	exch, ok := scoring.ByName(setup.Matrix)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown exchange matrix %q", setup.Matrix)
	}
	for i, c := range setup.Seq {
		if int(c) >= exch.Alphabet().Len() {
			return nil, fmt.Errorf("cluster: residue code %d at %d out of range", c, i)
		}
	}
	if setup.Lanes == 0 {
		// the master ships its resolved count; resolving here could differ
		return nil, fmt.Errorf("cluster: setup carries an unresolved lane count")
	}
	e, err := topalign.NewEngine(setup.Seq, topalign.Config{
		Params:     align.Params{Exch: exch, Gap: scoring.Gap{Open: setup.GapOpen, Ext: setup.GapExt}},
		NumTops:    1, // never reached: a slave only realigns
		GroupLanes: int(setup.Lanes),
	})
	if err != nil {
		return nil, err
	}
	sl := &slave{
		comm:       comm,
		e:          e,
		trace:      setup.Trace,
		epoch:      time.Now(),
		quit:       make(chan struct{}),
		rowWaiters: make(map[int]chan []int32),
	}
	sl.replica.Store(&replicaState{tri: e.Triangle(), version: 0})
	return sl, nil
}

// run is the slave's receive loop plus worker pool.
func (sl *slave) run(threads int) error {
	// The master assigns at most one job per advertised worker slot, so a
	// buffer of `threads` guarantees the receive loop never blocks on the
	// job channel while workers wait for row replies it must deliver.
	sl.jobs = make(chan msgJob, threads)
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	// A master that finishes a short run before this slave has announced
	// every thread has closed its endpoint, and the send fails. Which
	// error it fails with depends on the transport (over TCP it is the
	// socket's own), so announcing just stops there: the receive loop
	// below still reads the stop or the loss the master left behind.
	var loopErr error
	announcing := true
	for i := 0; i < threads && announcing; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker thread owns its kernel scratch, so a warm
			// slave aligns without per-job allocation.
			sc := &workScratch{}
			for job := range sl.jobs {
				err := sl.work(job, sc)
				if errors.Is(err, ErrMasterDown) {
					return // the receive loop sees the stop or the loss
				}
				if err != nil {
					// The receive loop is blocked in Recv: the master's
					// stop, answering this report, is what ends it. If
					// the report cannot be sent, the master is gone and
					// the loop sees that instead.
					err = fmt.Errorf("cluster: slave %d, job for split %d: %w", sl.comm.Rank(), job.R, err)
					sl.comm.Send(0, tagRefused, []byte(err.Error()))
					errCh <- err
					return
				}
			}
		}()
		announcing = sl.comm.Send(0, tagReady, nil) == nil
	}

recv:
	for loopErr == nil {
		msg, err := sl.comm.Recv()
		if err != nil {
			loopErr = err
			break
		}
		switch msg.Tag {
		case tagJob:
			job, err := decodeJob(msg.Data)
			if err != nil {
				loopErr = err
				break recv
			}
			sl.jobs <- job
		case tagTop:
			upd, err := decodeTop(msg.Data)
			if err != nil {
				loopErr = err
				break recv
			}
			sl.applyTop(upd)
		case tagRow:
			row, err := decodeRow(msg.Data)
			if err != nil {
				loopErr = err
				break recv
			}
			sl.deliverRow(int(row.R), row.Row)
		case tagStop:
			break recv
		case mpi.TagDown:
			// Only the master's death ends the run; with the local
			// transport a sibling slave's death is also broadcast here
			// and must be ignored.
			if msg.From == 0 {
				loopErr = ErrMasterDown
				break recv
			}
		default:
			loopErr = fmt.Errorf("cluster: slave got unexpected tag %d", msg.Tag)
			break recv
		}
	}
	close(sl.jobs)
	close(sl.quit)
	// unblock any worker waiting for a row
	sl.mu.Lock()
	for r, ch := range sl.rowWaiters {
		close(ch)
		delete(sl.rowWaiters, r)
	}
	sl.mu.Unlock()
	wg.Wait()
	select {
	case werr := <-errCh:
		return werr // the failure the master was told of ends the run
	default:
	}
	if loopErr == mpi.ErrClosed {
		loopErr = nil
	}
	return loopErr
}

// applyTop folds a broadcast top alignment into a fresh replica and
// publishes it. Workers mid-alignment keep the snapshot they started
// with; their results carry the old version, which the master treats as
// the stale upper bound it is.
func (sl *slave) applyTop(upd msgTop) {
	cur := sl.replica.Load()
	tri := cur.tri.Clone()
	for i := range upd.PairsI {
		tri.Set(int(upd.PairsI[i]), int(upd.PairsJ[i]))
	}
	sl.replica.Store(&replicaState{tri: tri, version: int(upd.Version)})
}

// deliverRow routes a fetched original row to the waiting worker.
func (sl *slave) deliverRow(r int, row []int32) {
	sl.mu.Lock()
	ch := sl.rowWaiters[r]
	delete(sl.rowWaiters, r)
	sl.mu.Unlock()
	if ch != nil {
		ch <- row
	}
}

// fetchRow makes sure the engine's row store holds the original bottom
// row of split r, fetching it from the master on a miss. Fetch latency
// (request to delivery) lands in the cluster/row_fetch_ns histogram,
// and in a slave.row_fetch span when the job is traced — a hit records
// neither, so the span count stays proportional to actual
// communication.
func (sl *slave) fetchRow(r int, sc *workScratch) error {
	if _, ok := sl.e.OrigRows().Get(r); ok {
		return nil
	}
	sl.reg.Counter("cluster/row_requests").Inc()
	fetchStart := time.Now()
	spanStart := sl.now()
	ch := make(chan []int32, 1)
	sl.mu.Lock()
	sl.rowWaiters[r] = ch
	sl.mu.Unlock()
	if err := sl.send(tagRowReq, msgRow{R: int32(r)}.encode()); err != nil {
		return err
	}
	var row []int32
	select {
	case got, ok := <-ch:
		if !ok {
			return ErrMasterDown
		}
		row = got
	case <-sl.quit:
		// Receive loop is gone; no reply can ever arrive.
		return ErrMasterDown
	}
	if len(row) != sl.e.Len()-r {
		return fmt.Errorf("cluster: master sent row for split %d with %d entries, want %d",
			r, len(row), sl.e.Len()-r)
	}
	sl.reg.Histogram("cluster/row_fetch_ns").Observe(time.Since(fetchStart))
	sc.span("slave.row_fetch", spanStart, sl.now()-spanStart)
	sl.e.OrigRows().Put(r, row)
	return nil
}

// now returns the slave's local monotonic time in nanoseconds.
func (sl *slave) now() int64 { return time.Since(sl.epoch).Nanoseconds() }

// workScratch bundles the kernel arenas one slave worker thread owns
// and the task it realigns (kept for its reused member-score slice),
// plus the thread's span buffer for the job in progress. traced and job
// are set per job by work; the kernel and row-fetch paths append child
// spans without further coordination because one thread owns them.
type workScratch struct {
	topalign.Scratch
	task topalign.Task

	traced bool
	job    trace.SpanID // current slave.job span, parent for children
	spans  []trace.Span
}

// span appends a completed child span of the current job (no-op when
// the job is untraced). start is slave-local time from sl.now().
func (sc *workScratch) span(name string, start, dur int64) {
	if !sc.traced {
		return
	}
	sc.spans = append(sc.spans, trace.Span{
		ID:     trace.NewSpanID(),
		Parent: sc.job,
		Name:   name,
		Start:  start,
		Dur:    dur,
	})
}

// work executes one job and reports the result. Job latency (kernel
// plus any row fetch) lands in the per-rank cluster/job_ns histogram;
// the pure kernel time travels back in the result's Work, which the
// master counts into the engine's per-alignment align_ns histogram.
func (sl *slave) work(job msgJob, sc *workScratch) error {
	rank := sl.comm.Rank()
	sl.reg.Counter(fmt.Sprintf("cluster/jobs_done/rank%d", rank)).Inc()
	if sl.reg != nil {
		defer func(t0 time.Time) {
			sl.reg.Histogram(fmt.Sprintf("cluster/job_ns/rank%d", rank)).Observe(time.Since(t0))
		}(time.Now())
	}
	// Attribution: pin the thread for the job and meter its CPU. The
	// thread clock stands still during row-fetch waits, so CPUNanos is
	// pure compute — the master folds it into the request's Usage.
	var cpu attrib.Stopwatch
	cpu.Start()
	sc.traced = !sl.trace.IsZero() && !job.Span.IsZero()
	sc.spans = sc.spans[:0]
	var jobStart int64
	if sc.traced {
		sc.job = trace.NewSpanID()
		jobStart = sl.now()
	}
	if job.R < 1 || int(job.R) > sl.e.NumSplits() {
		return fmt.Errorf("split out of range [1, %d]", sl.e.NumSplits())
	}
	// A job is Engine.Realign against the replica. The engine tells a
	// first alignment by its row store, so the original rows of a task
	// aligned elsewhere before (the job says which) are fetched first.
	t := &sc.task
	t.R = int(job.R)
	lanes := sl.e.Config().GroupLanes
	last := min(t.R+lanes-1, sl.e.NumSplits())
	if !job.First {
		for r := t.R; r <= last; r++ {
			if err := sl.fetchRow(r, sc); err != nil {
				return err
			}
		}
	}
	rep := sl.replica.Load()
	t0 := sl.now()
	w, err := sl.e.Realign(t, rep.tri, rep.version, &sc.Scratch)
	if err != nil {
		return err
	}
	sc.span("slave.kernel", t0, sl.now()-t0)
	res := msgResult{R: job.R, Version: int32(t.AlignedWith), Work: w, Scores: t.MemberScores}
	if lanes == 1 {
		res.Scores = []int32{t.Score}
	}
	if w.First {
		res.Rows = make([][]int32, 0, last-t.R+1)
		for r := t.R; r <= last; r++ {
			row, _ := sl.e.OrigRows().Get(r) // Realign has just stored it
			res.Rows = append(res.Rows, row)
		}
	}
	if sc.traced {
		// Close the job span, stamp identity onto the batch, and ship it
		// with the result. SlaveNow is sampled as late as possible so the
		// master's re-basing starts from the freshest timestamp.
		sc.spans = append(sc.spans, trace.Span{
			ID:     sc.job,
			Parent: job.Span,
			Name:   "slave.job",
			Start:  jobStart,
			Dur:    sl.now() - jobStart,
			Arg:    int64(job.R),
		})
		for i := range sc.spans {
			sc.spans[i].Trace = sl.trace
			sc.spans[i].Rank = int32(rank)
		}
		res.SlaveNow = sl.now()
		res.Spans = trace.EncodeSpans(sc.spans)
	}
	res.CPUNanos = cpu.Stop()
	return sl.send(tagResult, res.encode())
}

// send sends to the master from a worker thread. A failed send means
// the master is gone (or stopping), which is not the job's failure.
func (sl *slave) send(tag mpi.Tag, data []byte) error {
	if err := sl.comm.Send(0, tag, data); err != nil {
		return fmt.Errorf("%w: %v", ErrMasterDown, err)
	}
	return nil
}
