// Package mpi is a small message-passing runtime standing in for the
// MPI layer of the paper's distributed implementation (Section 4.3).
// It provides ranked endpoints with tagged, blocking point-to-point
// messages over two transports:
//
//   - an in-process transport (goroutine ranks connected by channels),
//     used by tests and by the single-binary cluster examples;
//   - a TCP transport (length-prefixed frames, star topology around
//     rank 0), used by the repromaster/reproworker binaries to run a
//     real multi-process cluster over sockets.
//
// The paper's communication pattern is master/slave: rank 0 owns the
// task queue and the last-row store, other ranks request work. The TCP
// transport therefore implements a star: workers exchange messages with
// rank 0 only, which is exactly the pattern package cluster uses.
//
// Endpoint failure surfaces as a message with the reserved TagDown, so
// a master learns that a worker is gone instead of hanging on it. As in
// the paper, a lost rank is not recovered from: package cluster fails
// the run with an error naming it.
package mpi

import (
	"errors"
	"fmt"
)

// Tag labels a message's meaning. Applications use values below
// TagDown, which the runtime reserves.
type Tag uint8

// TagDown is delivered locally (never sent on the wire) when a peer's
// connection breaks; From identifies the lost rank.
const TagDown Tag = 255

// maxPayload bounds a frame to keep a corrupt length prefix from
// allocating unbounded memory.
const maxPayload = 1 << 28

// Message is one received message.
type Message struct {
	From int
	Tag  Tag
	Data []byte
}

// Comm is one rank's endpoint.
type Comm interface {
	// Rank returns this endpoint's rank (0 = master).
	Rank() int
	// Size returns the total number of ranks.
	Size() int
	// Send delivers data to rank `to` with the given tag. Data is not
	// aliased after Send returns.
	Send(to int, tag Tag, data []byte) error
	// Recv blocks until a message from any rank arrives. After a peer
	// dies, a TagDown message for it is delivered once; Recv returns
	// ErrClosed after Close.
	Recv() (Message, error)
	// Close shuts the endpoint down.
	Close() error
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("mpi: endpoint closed")

// errBadRank formats the common destination error.
func errBadRank(to, size int) error {
	return fmt.Errorf("mpi: destination rank %d out of range (size %d)", to, size)
}
