// tcp.go implements a loopback TCP transport for the SPMD runtime.
//
// Run delivers messages by direct mailbox enqueue inside one address
// space. RunTCP keeps the same programming model (ranks, tags,
// collectives) but routes every inter-rank message over a real TCP
// socket, the way MPICH2 carries MPI point-to-point traffic between
// cluster nodes. This exercises frame encoding, kernel socket
// buffering and reader-side reassembly on every Send/Recv and every
// collective, so transport costs and serialization bugs are observable
// rather than hidden by the in-process shortcut. Self-sends stay local,
// as in MPI.
//
// Topology: a full mesh. Rank i owns one listener; during setup every
// rank dials every other rank once, yielding one connection per
// directed pair. A directed pair's frames travel on a single
// connection, which preserves the runtime's non-overtaking guarantee
// (FIFO per source) end to end.
//
// Frame format (little-endian, 12-byte header + payload):
//
//	offset 0  tag   int32  user or collective tag
//	offset 4  dlen  uint64 payload length
//	offset 12 data  [dlen]byte
//
// The sender is not in the frame: it is the connection's handshake
// peer, since each directed pair has its own connection.
//
// A torn connection while ranks are still running poisons every
// mailbox, so blocked receivers return an error instead of hanging.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// tcpHeaderLen is the fixed frame header size in bytes.
const tcpHeaderLen = 12

// tcpMaxFrame bounds a single payload; larger sends are rejected
// rather than silently truncated (1 GiB is far beyond any test or
// benchmark message in this repository).
const tcpMaxFrame = 1 << 30

// TCPStats aggregates wire traffic over one RunTCP world.
type TCPStats struct {
	// Msgs is the number of frames carried over sockets (self-sends
	// excluded, exactly as they would not hit a cluster network).
	Msgs int64
	// Bytes is the total wire volume including frame headers.
	Bytes int64
}

// tcpNet is the socket mesh for one world.
type tcpNet struct {
	world *World
	n     int

	listeners []net.Listener
	addrs     []string

	// conns[i][j] carries frames from rank i to rank j.
	// Written by rank i's goroutine; the per-connection mutex guards
	// against user code sending from helper goroutines.
	conns [][]net.Conn
	mus   [][]sync.Mutex

	readers  sync.WaitGroup
	shutdown atomic.Bool

	msgs  atomic.Int64
	bytes atomic.Int64
}

// RunTCP executes fn on n ranks exactly like Run, but every
// inter-rank message crosses a loopback TCP socket. It returns the
// joined rank errors, if any.
func RunTCP(n int, fn func(c *Comm) error) error {
	_, err := RunTCPStats(n, fn)
	return err
}

// RunTCPStats is RunTCP plus wire-traffic statistics, for transport
// ablation experiments.
func RunTCPStats(n int, fn func(c *Comm) error) (TCPStats, error) {
	w, err := newWorld(n)
	if err != nil {
		return TCPStats{}, err
	}
	t, err := newTCPNet(w, n)
	if err != nil {
		return TCPStats{}, err
	}
	w.remote = t.send
	runErr := w.run(fn)
	t.close()
	return TCPStats{Msgs: t.msgs.Load(), Bytes: t.bytes.Load()}, runErr
}

// newTCPNet listens on n loopback ports and dials the full mesh. On
// any setup failure it tears down what it opened and reports the
// cause.
func newTCPNet(w *World, n int) (*tcpNet, error) {
	t := &tcpNet{
		world:     w,
		n:         n,
		listeners: make([]net.Listener, n),
		addrs:     make([]string, n),
		conns:     make([][]net.Conn, n),
		mus:       make([][]sync.Mutex, n),
	}
	for i := 0; i < n; i++ {
		t.conns[i] = make([]net.Conn, n)
		t.mus[i] = make([]sync.Mutex, n)
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("cluster: tcp listen for rank %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
	}

	// Each listener accepts n-1 peers; the 4-byte handshake names the
	// dialing rank, which is the sender of every frame on the
	// connection (the destination is implied by the listener).
	var acceptWG sync.WaitGroup
	acceptErrs := make([]error, n)
	for i := 0; i < n; i++ {
		acceptWG.Add(1)
		go func(me int) {
			defer acceptWG.Done()
			for peers := 0; peers < n-1; peers++ {
				conn, err := t.listeners[me].Accept()
				if err != nil {
					acceptErrs[me] = fmt.Errorf("cluster: tcp accept on rank %d: %w", me, err)
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					conn.Close()
					acceptErrs[me] = fmt.Errorf("cluster: tcp handshake on rank %d: %w", me, err)
					return
				}
				from := int(int32(u32(hello[:])))
				if from < 0 || from >= n || from == me {
					conn.Close()
					acceptErrs[me] = fmt.Errorf("cluster: tcp handshake on rank %d: bad peer rank %d", me, from)
					return
				}
				t.readers.Add(1)
				go t.readLoop(conn, me, from)
			}
		}(i)
	}

	var dialErr error
	for i := 0; i < n && dialErr == nil; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			conn, err := net.Dial("tcp", t.addrs[j])
			if err != nil {
				dialErr = fmt.Errorf("cluster: tcp dial %d->%d: %w", i, j, err)
				break
			}
			var hello [4]byte
			putU32(hello[:], uint32(i))
			if _, err := conn.Write(hello[:]); err != nil {
				conn.Close()
				dialErr = fmt.Errorf("cluster: tcp handshake %d->%d: %w", i, j, err)
				break
			}
			t.conns[i][j] = conn
		}
	}
	acceptWG.Wait()
	if dialErr == nil {
		dialErr = errors.Join(acceptErrs...)
	}
	if dialErr != nil {
		t.close()
		return nil, dialErr
	}
	return t, nil
}

// send writes m on the from->to connection: the header and the payload
// go out as one vectored write (writev), so the payload is never copied
// into a frame.
func (t *tcpNet) send(from, to int, m message) error {
	if len(m.data) > tcpMaxFrame {
		return fmt.Errorf("cluster: tcp frame too large (%d bytes)", len(m.data))
	}
	conn := t.conns[from][to]
	if conn == nil {
		return fmt.Errorf("cluster: no tcp route %d->%d", from, to)
	}
	var hdr [tcpHeaderLen]byte
	putU32(hdr[0:], uint32(int32(m.tag)))
	putU64(hdr[4:], uint64(len(m.data)))
	frame := net.Buffers{hdr[:], m.data}

	mu := &t.mus[from][to]
	mu.Lock()
	n, err := frame.WriteTo(conn)
	mu.Unlock()
	if err != nil {
		return fmt.Errorf("cluster: tcp send %d->%d: %w", from, to, err)
	}
	t.msgs.Add(1)
	t.bytes.Add(n)
	return nil
}

// readLoop reassembles the frames rank from sends to rank me and
// enqueues them in me's mailbox. A read failure during normal operation
// (not shutdown) poisons the world so no receiver hangs.
func (t *tcpNet) readLoop(conn net.Conn, me, from int) {
	defer t.readers.Done()
	defer conn.Close()
	hdr := make([]byte, tcpHeaderLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.readFailed(me, err)
			return
		}
		dlen := u64(hdr[4:])
		if dlen > tcpMaxFrame {
			t.readFailed(me, fmt.Errorf("frame of %d bytes exceeds limit", dlen))
			return
		}
		m := message{
			from: from,
			tag:  int(int32(u32(hdr[0:]))),
			data: make([]byte, dlen),
		}
		if _, err := io.ReadFull(conn, m.data); err != nil {
			t.readFailed(me, err)
			return
		}
		if err := t.world.enqueue(me, m); err != nil {
			// The world is already poisoned or finished; drop quietly.
			return
		}
	}
}

// readFailed escalates a connection failure unless we are shutting
// down (EOF during teardown is the expected way readers exit).
func (t *tcpNet) readFailed(me int, err error) {
	if t.shutdown.Load() {
		return
	}
	t.world.fail(fmt.Errorf("cluster: tcp connection to rank %d died: %w", me, err))
}

// close tears the mesh down and waits for reader goroutines.
func (t *tcpNet) close() {
	t.shutdown.Store(true)
	for i := range t.conns {
		for j := range t.conns[i] {
			if c := t.conns[i][j]; c != nil {
				c.Close()
			}
		}
	}
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	t.readers.Wait()
}

func putU64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
