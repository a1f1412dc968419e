package shim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"nwids/internal/packet"
)

// Tunnel framing: a fixed 18-byte header followed by the payload.
//
//	u32 payloadLen | u8 proto | u32 srcIP | u32 dstIP | u16 sport | u16 dport | u8 dir
const headerLen = 18

// maxPayload bounds a frame's payload, protecting receivers from
// adversarial or corrupted length fields.
const maxPayload = 1 << 20

// WritePacket frames p onto w.
func WritePacket(w io.Writer, p packet.Packet) error {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(p.Payload)))
	hdr[4] = p.Tuple.Proto
	binary.BigEndian.PutUint32(hdr[5:], p.Tuple.SrcIP)
	binary.BigEndian.PutUint32(hdr[9:], p.Tuple.DstIP)
	binary.BigEndian.PutUint16(hdr[13:], p.Tuple.SrcPort)
	binary.BigEndian.PutUint16(hdr[15:], p.Tuple.DstPort)
	hdr[17] = byte(p.Dir)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(p.Payload)
	return err
}

// ReadPacket reads one framed packet from r. It returns io.EOF only when r
// ends cleanly on a frame boundary; a frame cut short anywhere — inside the
// header, or between the header and the end of its declared payload — is
// io.ErrUnexpectedEOF. A declared payload above maxPayload is rejected
// before anything is allocated for it, so one call allocates at most
// maxPayload bytes.
func ReadPacket(r io.Reader) (packet.Packet, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return packet.Packet{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	if n > maxPayload {
		return packet.Packet{}, fmt.Errorf("shim: frame payload %d exceeds limit", n)
	}
	p := packet.Packet{
		Tuple: packet.FiveTuple{
			Proto:   hdr[4],
			SrcIP:   binary.BigEndian.Uint32(hdr[5:]),
			DstIP:   binary.BigEndian.Uint32(hdr[9:]),
			SrcPort: binary.BigEndian.Uint16(hdr[13:]),
			DstPort: binary.BigEndian.Uint16(hdr[15:]),
		},
		Dir: packet.Direction(hdr[17]),
	}
	if n > 0 {
		p.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, p.Payload); err != nil {
			if err == io.EOF {
				// ReadFull reports EOF when not one payload byte arrived;
				// with the header already consumed that is a truncated
				// frame, not the end of the stream.
				err = io.ErrUnexpectedEOF
			}
			return packet.Packet{}, err
		}
	}
	return p, nil
}

// Tunnel is a persistent client connection replicating packets to a mirror
// node (§7.2: the shim "maintains persistent tunnels with its mirror
// nodes"). Sends are buffered; call Flush before expecting delivery.
type Tunnel struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	sent uint64
}

// Dial opens a tunnel to the mirror's tunnel server.
func Dial(addr string) (*Tunnel, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shim: dial tunnel %s: %w", addr, err)
	}
	return &Tunnel{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10)}, nil
}

// Send frames one packet into the tunnel.
func (t *Tunnel) Send(p packet.Packet) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := WritePacket(t.bw, p); err != nil {
		return err
	}
	t.sent++
	return nil
}

// SendBatch frames a batch of packets into the tunnel under one lock
// acquisition — the batching entry point the emulation's live mode uses
// so replicated packets pay the mutex and buffered-writer overhead per
// batch, not per packet. Delivery order matches the slice order.
func (t *Tunnel) SendBatch(pkts []packet.Packet) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range pkts {
		if err := WritePacket(t.bw, pkts[i]); err != nil {
			return err
		}
		t.sent++
	}
	return nil
}

// Sent returns the number of packets sent.
func (t *Tunnel) Sent() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent
}

// Flush drains buffered frames to the connection.
func (t *Tunnel) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Close flushes and closes the tunnel.
func (t *Tunnel) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ferr := t.bw.Flush()
	cerr := t.conn.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Server accepts tunnel connections for a mirror node and delivers each
// received packet to the handler. The handler is invoked from per-
// connection goroutines and must be safe for concurrent use.
type Server struct {
	ln      net.Listener
	handler func(packet.Packet)
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	conns   []net.Conn
}

// Serve starts a tunnel server on addr (use "127.0.0.1:0" for an ephemeral
// port in tests).
func Serve(addr string, handler func(packet.Packet)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shim: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//lint:ignore errdiscard rejecting a connection that raced Close; its close error is of no use
			conn.Close()
			return
		}
		s.conns = append(s.conns, conn)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

func (s *Server) readLoop(conn net.Conn) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		p, err := ReadPacket(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				// Connection-level errors end the stream silently; framing
				// errors indicate a bug or attack and also end it.
				_ = err
			}
			return
		}
		s.handler(p)
	}
}

// Close stops accepting, closes all connections and waits for readers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		//lint:ignore errdiscard best-effort shutdown; the listener close error is the one returned
		c.Close()
	}
	s.wg.Wait()
	return err
}
