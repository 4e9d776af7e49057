package mpi

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestLocalBasicExchange(t *testing.T) {
	world := NewLocal(3)
	defer closeAll(world)

	if err := world[1].Send(0, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, err := world[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 1 || msg.Tag != 7 || string(msg.Data) != "hello" {
		t.Errorf("got %+v", msg)
	}
	if world[2].Rank() != 2 || world[2].Size() != 3 {
		t.Error("rank/size wrong")
	}
}

func TestLocalSendCopiesData(t *testing.T) {
	world := NewLocal(2)
	defer closeAll(world)
	buf := []byte("abc")
	if err := world[0].Send(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	msg, _ := world[1].Recv()
	if string(msg.Data) != "abc" {
		t.Errorf("mutation leaked into message: %q", msg.Data)
	}
}

func TestLocalBadRank(t *testing.T) {
	world := NewLocal(2)
	defer closeAll(world)
	if err := world[0].Send(5, 0, nil); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if err := world[0].Send(-1, 0, nil); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestLocalCloseDeliversDown(t *testing.T) {
	world := NewLocal(2)
	world[1].Close()
	msg, err := world[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != TagDown || msg.From != 1 {
		t.Errorf("expected TagDown from 1, got %+v", msg)
	}
	if err := world[0].Send(1, 1, nil); err != ErrClosed {
		t.Errorf("send to closed peer = %v, want ErrClosed", err)
	}
	world[0].Close()
	if _, err := world[0].Recv(); err != ErrClosed {
		t.Errorf("recv after close = %v, want ErrClosed", err)
	}
}

func TestLocalManyToOne(t *testing.T) {
	const workers = 8
	const per = 100
	world := NewLocal(workers + 1)
	defer closeAll(world)

	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				payload := []byte(fmt.Sprintf("%d:%d", rank, i))
				if err := world[rank].Send(0, Tag(rank), payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	counts := make(map[int]int)
	for i := 0; i < workers*per; i++ {
		msg, err := world[0].Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[msg.From]++
	}
	wg.Wait()
	for w := 1; w <= workers; w++ {
		if counts[w] != per {
			t.Errorf("rank %d delivered %d messages, want %d", w, counts[w], per)
		}
	}
}

func startTCPWorld(t *testing.T, size int) (Comm, []Comm) {
	t.Helper()
	addr := "127.0.0.1:0"
	// pick a free port by listening briefly
	masterCh := make(chan Comm, 1)
	errCh := make(chan error, 1)
	// We need the actual address before dialing: listen on a known port
	// by binding first.
	ln := mustFreeAddr(t)
	go func() {
		m, err := ListenTCP(ln, size, 5*time.Second)
		if err != nil {
			errCh <- err
			return
		}
		masterCh <- m
	}()
	time.Sleep(50 * time.Millisecond)
	workers := make([]Comm, 0, size-1)
	for i := 1; i < size; i++ {
		w, err := DialTCP(ln, 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		workers = append(workers, w)
	}
	select {
	case m := <-masterCh:
		return m, workers
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("master did not come up")
	}
	_ = addr
	return nil, nil
}

// mustFreeAddr returns a loopback address with an unused port.
func mustFreeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestTCPExchange(t *testing.T) {
	m, workers := startTCPWorld(t, 3)
	defer m.Close()
	defer closeAll(workers)

	// ranks were assigned in connection order: 1, 2
	for i, w := range workers {
		if w.Rank() != i+1 || w.Size() != 3 {
			t.Fatalf("worker %d has rank %d size %d", i, w.Rank(), w.Size())
		}
	}
	// worker -> master
	if err := workers[0].Send(0, 9, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	msg, err := m.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 1 || msg.Tag != 9 || string(msg.Data) != "ping" {
		t.Errorf("master got %+v", msg)
	}
	// master -> worker 2 with a large payload
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := m.Send(2, 3, big); err != nil {
		t.Fatal(err)
	}
	msg, err = workers[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != 3 || !bytes.Equal(msg.Data, big) {
		t.Error("large payload corrupted")
	}
}

func TestTCPStarTopologyEnforced(t *testing.T) {
	m, workers := startTCPWorld(t, 3)
	defer m.Close()
	defer closeAll(workers)
	if err := workers[0].Send(2, 0, nil); err == nil {
		t.Error("worker-to-worker send accepted")
	}
	if err := m.Send(0, 0, nil); err == nil {
		t.Error("master self-send accepted")
	}
}

func TestTCPWorkerDeathDeliversDown(t *testing.T) {
	m, workers := startTCPWorld(t, 3)
	defer m.Close()
	defer closeAll(workers)

	workers[0].Close() // rank 1 dies
	msg, err := m.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != TagDown || msg.From != 1 {
		t.Errorf("expected TagDown from rank 1, got %+v", msg)
	}
	// the rest of the world still works
	if err := workers[1].Send(0, 4, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	msg, err = m.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 2 || string(msg.Data) != "alive" {
		t.Errorf("got %+v", msg)
	}
}

// A client that connects but never sends its magic must not consume a
// rank or block the world from forming: its handshake runs in its own
// goroutine while a real worker is admitted.
func TestTCPHandshakeStallDoesNotBlockAdmission(t *testing.T) {
	addr := mustFreeAddr(t)
	masterCh := make(chan Comm, 1)
	go func() {
		m, err := ListenTCP(addr, 2, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		masterCh <- m
	}()
	time.Sleep(50 * time.Millisecond)

	stall, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	time.Sleep(50 * time.Millisecond) // ensure the stalled conn is accepted first

	w, err := DialTCP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m := <-masterCh
	if m == nil {
		return
	}
	defer m.Close()

	if w.Rank() != 1 {
		t.Errorf("real worker got rank %d, want 1 (a stalled handshake must not consume a rank)", w.Rank())
	}
	if err := w.Send(0, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := m.Recv()
	if err != nil || msg.From != 1 || msg.Tag != 7 || string(msg.Data) != "hi" {
		t.Errorf("got %+v (%v)", msg, err)
	}
}

func TestTCPWorldSizeValidation(t *testing.T) {
	if _, err := ListenTCP("127.0.0.1:0", 1, time.Second); err == nil {
		t.Error("world size 1 accepted")
	}
}

func closeAll(comms []Comm) {
	for _, c := range comms {
		c.Close()
	}
}
