package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire format, per frame:
//
//	magic   [4]byte "RPR1" (handshake only)
//	frame:  uint32 payload length | uint8 tag | int32 from | payload
//
// Handshake: worker connects and sends magic; master replies with
// magic, assigned rank (int32) and world size (int32).

var tcpMagic = [4]byte{'R', 'P', 'R', '1'}

// handshakeTimeout bounds the magic/hello exchange on one connection,
// so a client that connects and says nothing gives its goroutine back.
const handshakeTimeout = 10 * time.Second

// ListenTCP starts the master endpoint (rank 0) on addr and blocks
// until size-1 workers have connected (or timeout elapses; 0 means no
// timeout). The returned Comm receives from all workers; Send addresses
// workers by their assigned rank. The listener closes once the world
// has formed: the world's size is fixed for the run.
func ListenTCP(addr string, size int, timeout time.Duration) (Comm, error) {
	if size < 2 {
		return nil, fmt.Errorf("mpi: tcp world size %d must be >= 2", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: listen %s: %w", addr, err)
	}
	defer ln.Close()
	if timeout > 0 {
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(timeout))
	}
	m := &tcpMaster{
		next:  1,
		conns: make([]*tcpConn, size),
		inbox: make(chan Message, 1024),
		done:  make(chan struct{}),
	}
	// Each handshake runs in its own goroutine, so a client that
	// connects and stalls cannot hold up the workers behind it.
	admitted := make(chan struct{}, size)
	errCh := make(chan error, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				errCh <- err
				return
			}
			go m.admit(conn, admitted)
		}
	}()
	for got := 0; got < size-1; got++ {
		select {
		case <-admitted:
		case err := <-errCh:
			m.Close()
			return nil, fmt.Errorf("mpi: accepting workers (%d of %d connected): %w", got, size-1, err)
		}
	}
	return m, nil
}

// DialTCP connects a worker endpoint to the master at addr. The master
// assigns the rank.
func DialTCP(addr string, timeout time.Duration) (Comm, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("mpi: dial %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(tcpMagic[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpi: handshake: %w", err)
	}
	tc := newTCPConn(conn)
	var hello [12]byte
	if _, err := io.ReadFull(tc.br, hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpi: handshake reply: %w", err)
	}
	if [4]byte(hello[0:4]) != tcpMagic {
		conn.Close()
		return nil, fmt.Errorf("mpi: bad handshake magic from master")
	}
	conn.SetDeadline(time.Time{})
	w := &tcpWorker{
		rank:  int(binary.LittleEndian.Uint32(hello[4:8])),
		size:  int(binary.LittleEndian.Uint32(hello[8:12])),
		conn:  tc,
		inbox: make(chan Message, 1024),
		done:  make(chan struct{}),
	}
	go w.reader()
	return w, nil
}

// tcpConn wraps a connection with buffered I/O and a write lock.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
}

func newTCPConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &tcpConn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
}

func (t *tcpConn) writeFrame(from int, tag Tag, data []byte) error {
	if len(data) > maxPayload {
		return fmt.Errorf("mpi: payload %d exceeds limit", len(data))
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
	hdr[4] = byte(tag)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(int32(from)))
	err := func() error {
		if _, err := t.bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := t.bw.Write(data); err != nil {
			return err
		}
		return t.bw.Flush()
	}()
	if err != nil {
		// A partial frame leaves the stream unframeable: close the
		// connection so the reader converges on TagDown.
		t.c.Close()
	}
	return err
}

func (t *tcpConn) readFrame() (Message, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(t.br, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxPayload {
		return Message{}, fmt.Errorf("mpi: frame length %d exceeds limit", n)
	}
	msg := Message{
		Tag:  Tag(hdr[4]),
		From: int(int32(binary.LittleEndian.Uint32(hdr[5:9]))),
	}
	if n > 0 {
		msg.Data = make([]byte, n)
		if _, err := io.ReadFull(t.br, msg.Data); err != nil {
			return Message{}, err
		}
	}
	return msg, nil
}

// tcpMaster is rank 0 of a TCP world.
type tcpMaster struct {
	inbox chan Message
	done  chan struct{}

	mu     sync.Mutex
	next   int        // next rank to assign
	conns  []*tcpConn // rank -> conn; nil = not connected or down
	closed bool

	closeOnce sync.Once
}

func (m *tcpMaster) Rank() int { return 0 }
func (m *tcpMaster) Size() int { return len(m.conns) }

// admit handshakes one new connection under its own deadline and
// registers it as the next rank. Connections past the world's size are
// turned away.
func (m *tcpMaster) admit(conn net.Conn, admitted chan<- struct{}) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	tc := newTCPConn(conn)
	var magic [4]byte
	if _, err := io.ReadFull(tc.br, magic[:]); err != nil || magic != tcpMagic {
		conn.Close()
		return
	}
	m.mu.Lock()
	rank := m.next
	if m.closed || rank == len(m.conns) {
		m.mu.Unlock()
		conn.Close()
		return
	}
	m.next++
	m.conns[rank] = tc
	m.mu.Unlock()

	var hello [12]byte
	copy(hello[0:4], tcpMagic[:])
	binary.LittleEndian.PutUint32(hello[4:8], uint32(rank))
	binary.LittleEndian.PutUint32(hello[8:12], uint32(len(m.conns)))
	_, err := conn.Write(hello[:])
	conn.SetDeadline(time.Time{})
	// A failed hello still counts towards the world so ListenTCP cannot
	// hang; the rank is down from the start and surfaces as TagDown.
	admitted <- struct{}{}
	if err != nil {
		m.down(rank, tc)
		return
	}
	go m.reader(rank, tc)
}

// down closes rank's connection, forgets it and reports it as TagDown.
func (m *tcpMaster) down(rank int, tc *tcpConn) {
	tc.c.Close()
	m.mu.Lock()
	m.conns[rank] = nil
	m.mu.Unlock()
	m.deliver(Message{From: rank, Tag: TagDown})
}

func (m *tcpMaster) deliver(msg Message) {
	select {
	case m.inbox <- msg:
	case <-m.done:
	}
}

func (m *tcpMaster) Send(to int, tag Tag, data []byte) error {
	select {
	case <-m.done:
		return ErrClosed
	default:
	}
	if to <= 0 || to >= len(m.conns) {
		return errBadRank(to, len(m.conns))
	}
	m.mu.Lock()
	tc := m.conns[to]
	m.mu.Unlock()
	if tc == nil {
		return fmt.Errorf("mpi: rank %d is down", to)
	}
	return tc.writeFrame(0, tag, data)
}

func (m *tcpMaster) Recv() (Message, error) {
	select {
	case msg := <-m.inbox:
		return msg, nil
	case <-m.done:
		select {
		case msg := <-m.inbox:
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

// reader pumps one worker connection into the shared inbox and reports
// the worker's death exactly once.
func (m *tcpMaster) reader(rank int, tc *tcpConn) {
	for {
		msg, err := tc.readFrame()
		if err != nil {
			m.down(rank, tc)
			return
		}
		msg.From = rank // trust the connection, not the frame header
		m.deliver(msg)
	}
}

func (m *tcpMaster) Close() error {
	m.closeOnce.Do(func() {
		close(m.done)
		m.mu.Lock()
		m.closed = true
		for _, c := range m.conns {
			if c != nil {
				c.c.Close()
			}
		}
		m.mu.Unlock()
	})
	return nil
}

// tcpWorker is a non-zero rank connected to the master.
type tcpWorker struct {
	rank  int
	size  int
	conn  *tcpConn
	inbox chan Message
	done  chan struct{}

	closeOnce sync.Once
}

func (w *tcpWorker) Rank() int { return w.rank }
func (w *tcpWorker) Size() int { return w.size }

func (w *tcpWorker) Send(to int, tag Tag, data []byte) error {
	if to != 0 {
		return fmt.Errorf("mpi: tcp transport is a star: worker %d cannot send to rank %d", w.rank, to)
	}
	select {
	case <-w.done:
		return ErrClosed
	default:
	}
	return w.conn.writeFrame(w.rank, tag, data)
}

func (w *tcpWorker) Recv() (Message, error) {
	select {
	case msg := <-w.inbox:
		return msg, nil
	case <-w.done:
		select {
		case msg := <-w.inbox:
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

func (w *tcpWorker) reader() {
	for {
		msg, err := w.conn.readFrame()
		if err != nil {
			w.conn.c.Close()
			select {
			case w.inbox <- Message{From: 0, Tag: TagDown}:
			case <-w.done:
			}
			return
		}
		msg.From = 0
		select {
		case w.inbox <- msg:
		case <-w.done:
			return
		}
	}
}

func (w *tcpWorker) Close() error {
	w.closeOnce.Do(func() {
		close(w.done)
		w.conn.c.Close()
	})
	return nil
}
