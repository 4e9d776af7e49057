package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/seq"
	"repro/internal/topalign"
)

// The cluster's failure contract, as in the paper: the master owns the
// queue and the row store, and a failure is not recovered from. A lost
// slave, a slave's refusal or failure, and a result the master did not
// ask for each fail the run with an error naming the rank, after the
// master broadcasts stop so the other slaves exit.

// A slave that rejects the setup must fail the run with a diagnostic
// naming the refusal, and the master must release the slave with stop.
func TestClusterRefusedSetupFailsRun(t *testing.T) {
	q := seq.SyntheticTitin(60, 1)
	world := mpi.NewLocal(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := world[1]
		defer c.Close()
		msg, err := c.Recv()
		if err != nil || msg.Tag != tagSetup {
			t.Errorf("fake slave: expected setup, got %+v (%v)", msg, err)
			return
		}
		c.Send(0, tagRefused, []byte("no such matrix"))
		for {
			msg, err := c.Recv()
			if err != nil || msg.Tag == tagStop {
				return
			}
			_ = msg
		}
	}()
	_, err := RunMaster(world[0], q.Codes, Config{Top: topCfg(2)})
	world[0].Close()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("master error = %v, want setup refusal", err)
	}
}

// When the master aborts on a protocol error it must broadcast stop so
// healthy slaves exit cleanly instead of hanging on Recv.
func TestClusterMasterErrorBroadcastsStop(t *testing.T) {
	q := seq.SyntheticTitin(60, 1)
	world := mpi.NewLocal(3)
	slaveErr := make(chan error, 1)
	go func() { // healthy slave, rank 1
		defer world[1].Close()
		slaveErr <- RunSlave(world[1], 1)
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // rogue slave, rank 2: speaks an unknown application tag
		defer wg.Done()
		c := world[2]
		defer c.Close()
		msg, err := c.Recv()
		if err != nil || msg.Tag != tagSetup {
			return
		}
		c.Send(0, tagReady, nil)
		c.Send(0, 200, nil)
		for {
			if msg, err := c.Recv(); err != nil || msg.Tag == tagStop {
				return
			} else {
				_ = msg
			}
		}
	}()
	_, err := RunMaster(world[0], q.Codes, Config{Top: topCfg(2)})
	if err == nil {
		t.Fatal("master accepted an unexpected tag")
	}
	select {
	case serr := <-slaveErr:
		if serr != nil && !errors.Is(serr, ErrMasterDown) {
			t.Errorf("healthy slave exited with %v, want clean stop", serr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy slave did not stop after master error")
	}
	world[0].Close()
	wg.Wait()
}

// recvErrComm delegates to an inner Comm but fails Recv after a fixed
// number of deliveries, while Send keeps working — modelling a master
// whose receive path breaks but can still reach its slaves.
type recvErrComm struct {
	mpi.Comm
	after int
	n     int
}

func (c *recvErrComm) Recv() (mpi.Message, error) {
	if c.n >= c.after {
		return mpi.Message{}, errors.New("injected recv failure")
	}
	c.n++
	return c.Comm.Recv()
}

// A master whose Recv fails mid-run must broadcast stop before
// returning the error, so slaves exit cleanly instead of hanging.
func TestClusterMasterRecvErrorBroadcastsStop(t *testing.T) {
	q := seq.SyntheticTitin(60, 1)
	world := mpi.NewLocal(2)
	slaveErr := make(chan error, 1)
	go func() {
		defer world[1].Close()
		slaveErr <- RunSlave(world[1], 1)
	}()
	_, err := RunMaster(&recvErrComm{Comm: world[0], after: 3}, q.Codes, Config{Top: topCfg(2)})
	if err == nil || !strings.Contains(err.Error(), "injected recv failure") {
		t.Fatalf("master error = %v, want injected recv failure", err)
	}
	select {
	case serr := <-slaveErr:
		if serr != nil && !errors.Is(serr, ErrMasterDown) {
			t.Errorf("slave exited with %v, want clean stop", serr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slave did not stop after master recv error")
	}
	world[0].Close()
}

// freeAddr returns a loopback address with an unused port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// A slave that dies holding a job fails the run with an error naming
// its rank, on either transport, and the healthy slave is released: the
// cluster recovers by ending the run, not by requeueing the job.
func TestClusterSlaveDeathRecovers(t *testing.T) {
	q := seq.SyntheticTitin(140, 9)
	for _, tc := range []struct {
		name  string
		world func(t *testing.T) (master, healthy, dying mpi.Comm)
	}{
		{"channels", func(t *testing.T) (mpi.Comm, mpi.Comm, mpi.Comm) {
			w := mpi.NewLocal(3)
			return w[0], w[1], w[2]
		}},
		{"tcp", tcpWorld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master, healthy, dying := tc.world(t)
			// The healthy slave starts once the dying one has announced
			// its slot, so the master's first dispatch can go to the dying
			// slave: started together, the healthy slave could finish the
			// run before the dying one was ever sent a job.
			ready := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer healthy.Close()
				<-ready
				if err := RunSlave(healthy, 1); err != nil && !errors.Is(err, ErrMasterDown) {
					t.Errorf("healthy slave: %v", err)
				}
			}()
			go func() {
				defer wg.Done()
				dieHoldingJob(t, dying, ready)
			}()
			err := within(t, 10*time.Second, func() error {
				_, err := RunMaster(master, q.Codes, Config{Top: topCfg(5)})
				return err
			})
			master.Close()
			wg.Wait()
			want := fmt.Sprintf("slave %d", dying.Rank())
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("master error = %v, want one naming %s", err, want)
			}
		})
	}
}

// When the only slave dies holding a job the master fails the run with
// an error naming it; it does not finish the queue itself.
func TestClusterAllSlavesDie(t *testing.T) {
	q := seq.SyntheticTitin(60, 1)
	world := mpi.NewLocal(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dieHoldingJob(t, world[1], make(chan struct{}))
	}()
	err := within(t, 10*time.Second, func() error {
		_, err := RunMaster(world[0], q.Codes, Config{Top: topCfg(3)})
		return err
	})
	world[0].Close()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "slave 1") {
		t.Fatalf("master error = %v, want one naming slave 1", err)
	}
}

// dieHoldingJob plays a slave that takes the setup, reports ready, and
// closes its connection as soon as it is sent a job. It closes ready
// once the ready message is sent, or once it has failed to get a setup.
func dieHoldingJob(t *testing.T, c mpi.Comm, ready chan<- struct{}) {
	t.Helper()
	defer c.Close()
	msg, err := c.Recv()
	if err != nil || msg.Tag != tagSetup {
		close(ready)
		t.Errorf("dying slave: expected setup, got %+v (%v)", msg, err)
		return
	}
	c.Send(0, tagReady, nil)
	close(ready)
	for {
		msg, err := c.Recv()
		if err != nil || msg.Tag == tagStop {
			t.Error("dying slave was never sent a job")
			return
		}
		if msg.Tag == tagJob {
			return // die holding it
		}
	}
}

// tcpWorld forms a three-rank TCP world on loopback; the dying worker
// is the one that connects second.
func tcpWorld(t *testing.T) (master, healthy, dying mpi.Comm) {
	t.Helper()
	addr := freeAddr(t)
	masterCh := make(chan mpi.Comm, 1)
	go func() {
		m, err := mpi.ListenTCP(addr, 3, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		masterCh <- m
	}()
	time.Sleep(20 * time.Millisecond)
	var workers [2]mpi.Comm
	for i := range workers {
		w, err := mpi.DialTCP(addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		workers[i] = w
	}
	if master = <-masterCh; master == nil {
		t.FailNow()
	}
	return master, workers[0], workers[1]
}

// within runs f and fails the test unless it returns within d.
func within(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("no return within %v", d)
		return nil
	}
}

// A job the slave cannot run reaches the master as a failure message at
// once, and the slave returns that error after the master's stop. (The
// worker used to exit silently while the receive loop stayed blocked in
// Recv: the master heard nothing, and a strict run hung.)
func TestSlaveJobFailureReachesMaster(t *testing.T) {
	q := seq.SyntheticTitin(60, 1)
	setup := msgSetup{Seq: q.Codes, Matrix: "BLOSUM62", GapOpen: 10, GapExt: 1, Lanes: 1}
	for _, tc := range []struct {
		name string
		job  msgJob
		row  []int32 // the answer to the job's row request, if it makes one
	}{
		{"split 0", msgJob{R: 0, First: true}, nil},
		{"split -5", msgJob{R: -5, First: true}, nil},
		{"split 1000", msgJob{R: 1000, First: true}, nil},
		{"short row", msgJob{R: 5}, []int32{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world := mpi.NewLocal(2)
			defer world[0].Close()
			slaveErr := make(chan error, 1)
			go func() {
				defer world[1].Close()
				slaveErr <- RunSlave(world[1], 1)
			}()
			fake := world[0]
			fake.Send(1, tagSetup, setup.encode())
			if msg, err := fake.Recv(); err != nil || msg.Tag != tagReady {
				t.Fatalf("fake master: expected ready, got %+v (%v)", msg, err)
			}
			fake.Send(1, tagJob, tc.job.encode())
			msg := recvWithin(t, fake, 5*time.Second)
			if msg.Tag == tagRowReq {
				fake.Send(1, tagRow, msgRow{R: tc.job.R, Row: tc.row}.encode())
				msg = recvWithin(t, fake, 5*time.Second)
			}
			want := fmt.Sprintf("split %d", tc.job.R)
			if msg.Tag != tagRefused || !strings.Contains(string(msg.Data), want) {
				t.Fatalf("fake master got %+v (%q), want a failure naming %s", msg, msg.Data, want)
			}
			fake.Send(1, tagStop, nil)
			select {
			case err := <-slaveErr:
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("RunSlave = %v, want the job's error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunSlave did not return after stop")
			}
		})
	}
}

// recvWithin fails the test unless c delivers a message within d.
func recvWithin(t *testing.T, c mpi.Comm, d time.Duration) mpi.Message {
	t.Helper()
	var msg mpi.Message
	within(t, d, func() (err error) {
		msg, err = c.Recv()
		return err
	})
	return msg
}

// A result the master did not ask for fails the run with an error
// naming the slave and the split: a first result without one original
// row per member (it used to fail later, at accept, naming neither), a
// first result for a job dispatched as a realignment, and a result for
// a split that is not in flight.
func TestClusterBadResultFailsRun(t *testing.T) {
	q := seq.SyntheticTitin(60, 1)
	for _, tc := range []struct {
		name   string
		answer func(job msgJob) msgResult
		want   string
	}{
		{"first without rows", func(job msgJob) msgResult {
			return msgResult{R: job.R, Work: topalign.Work{First: true}, Scores: []int32{1}}
		}, "sent 0 rows for split"},
		{"first mismatched", func(job msgJob) msgResult {
			return msgResult{R: job.R, Scores: []int32{1}}
		}, "first=false, dispatched with first=true"},
		{"not in flight", func(job msgJob) msgResult {
			return msgResult{R: job.R + 1, Work: topalign.Work{First: true}, Scores: []int32{1}}
		}, "not in flight"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world := mpi.NewLocal(2)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := world[1]
				defer c.Close()
				if msg, err := c.Recv(); err != nil || msg.Tag != tagSetup {
					t.Errorf("fake slave: expected setup, got %+v (%v)", msg, err)
					return
				}
				c.Send(0, tagReady, nil)
				for {
					msg, err := c.Recv()
					if err != nil || msg.Tag == tagStop {
						return
					}
					if msg.Tag == tagJob {
						job, _ := decodeJob(msg.Data)
						c.Send(0, tagResult, tc.answer(job).encode())
					}
				}
			}()
			cfg := topalign.Config{Params: proteinParams, NumTops: 2, GroupLanes: 1}
			err := within(t, 10*time.Second, func() error {
				_, err := RunMaster(world[0], q.Codes, Config{Top: cfg})
				return err
			})
			world[0].Close()
			wg.Wait()
			if err == nil || !strings.Contains(err.Error(), "slave 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("master error = %v, want one naming slave 1 and %q", err, tc.want)
			}
		})
	}
}
