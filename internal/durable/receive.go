package durable

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Stream is one tier's side of a sequenced connection: what Receiver.Run,
// which owns the grammar (SeqStart first, implicit numbering, Admit,
// Settle, checkpoint, Commit, then ack), cannot know.
type Stream interface {
	// Start applies a SeqStart (Watermark.Start, plus whatever the tier
	// does to state the renumbering orphans) and returns the lines to
	// advertise. ok false refuses the connection: the stream has told the
	// peer why, and the loop hangs up.
	Start(ss wire.SeqStart) (acked, resume uint64, ok bool)
	// Hand takes over f and its view's reference. It calls f.Admit and, for
	// a Fresh frame, applies it, all in one critical section, so two live
	// connections never both admit a number, no number is admitted past one
	// whose apply is pending, and a duplicate returns only after its
	// original's apply has. ok false refuses the frame unadmitted, as Start
	// does. ack reports that f earns an acknowledgement now: false for a
	// frame that earns none, and for an intact frame whose payload does not
	// decode (the stream counts it).
	Hand(f *Frame) (ack, ok bool)
	// Sync returns the watermark and the lock guarding it and its state.
	Sync() (sync.Locker, *Watermark)
	// Acking runs just before f's ack is written; an error hangs up.
	Acking(f *Frame) error
	// End runs once as the connection ends, with the read error that ended
	// it if the link was damaged (wire.ErrChecksum) or lost, else nil. It
	// reports whether the loss counts as a disconnect.
	End(lost error) (disconnect bool)
}

// Frame is one numbered data frame on its way to a Stream.
type Frame struct {
	wire.FrameView
	Epoch, Seq uint64
	adm        Admission
}

// Admit classifies the frame against w (Watermark.Admit) and records the
// verdict for the loop.
func (f *Frame) Admit(w *Watermark) Admission {
	f.adm = w.Admit(f.Epoch, f.Seq)
	return f.adm
}

// Counters is a receiver's telemetry, in the tier's own counters (one may
// serve two roles; a nil one counts nothing).
type Counters struct {
	Conns            *obs.Counter // connections accepted
	Frames           *obs.Counter // frames read
	Bytes            *obs.Counter // their encoded size
	Acks             *obs.Counter // acks written, SeqStart replies included
	Duplicates       *obs.Counter // data frames at or below the dedup line
	Idle             *obs.Counter // connections closed after IdleTimeout
	Disconnects      *obs.Counter // links lost, and stale-epoch links dropped
	Corrupt          *obs.Counter // CRC-damaged frames and malformed SeqStarts
	Grammar          *obs.Counter // data frames before any SeqStart
	CheckpointErrors *obs.Counter // snapshots that failed (ack withheld)
}

// Receiver runs one tier's sequenced connections and tracks the live ones.
type Receiver struct {
	// Pool holds the frames read off every connection.
	Pool *wire.FramePool
	// IdleTimeout closes a connection that delivers no frame for this long
	// (≤ 0 disables).
	IdleTimeout time.Duration
	// Checkpoint makes the tier's state durable before an ack; nil means
	// acks only promise process-lifetime durability.
	Checkpoint func() error
	Counters

	conns sync.Map // the live connections, as keys
}

// Serve hands each connection accepted on l to its own goroutine, until
// Accept fails (net.ErrClosed after a clean Close of the listener).
func (r *Receiver) Serve(l net.Listener, handle func(net.Conn)) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go handle(conn)
	}
}

// CloseConns severs every live connection.
func (r *Receiver) CloseConns() {
	r.conns.Range(func(conn, _ any) bool {
		conn.(net.Conn).Close()
		return true
	})
}

// Run serves one connection to completion. open binds the handshake's
// source ID to its stream; nil refuses it (open has answered the peer).
func (r *Receiver) Run(conn net.Conn, open func(source string) Stream) {
	defer conn.Close()
	r.conns.Store(conn, nil)
	defer r.conns.Delete(conn)
	r.Conns.Inc()
	source, _, err := wire.ServerHandshake(conn)
	if err != nil {
		return
	}
	s := open(source)
	if s == nil {
		return
	}
	if s.End(r.receive(conn, s)) {
		r.Disconnects.Inc()
	}
}

// receive is the frame loop; it returns what Stream.End is given.
func (r *Receiver) receive(conn net.Conn, s Stream) error {
	mu, wm := s.Sync()
	var num Numbering
	rd := r.Pool.NewReader(conn)
	for {
		if r.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(r.IdleTimeout))
		}
		v, err := rd.Next()
		switch {
		case err == nil:
		case errors.Is(err, os.ErrDeadlineExceeded):
			// Silent for a full IdleTimeout; the sender redials with work.
			r.Idle.Inc()
			return nil
		case errors.Is(err, wire.ErrChecksum):
			// Dropping the link makes the sender retransmit everything
			// past the resume line, the damaged frame included.
			r.Corrupt.Inc()
			return err
		case err == io.EOF:
			return nil
		default:
			// Cut or closed: the sender reconnects and resumes.
			return err
		}
		r.Frames.Inc()
		r.Bytes.Add(uint64(len(v.Raw())))

		if v.Type == wire.TSeqStart {
			ss, err := wire.DecodeSeqStart(v.Payload)
			v.Release()
			if err != nil {
				// Nothing on this connection can be numbered.
				r.Corrupt.Inc()
				return nil
			}
			acked, resume, ok := s.Start(ss)
			if !ok {
				return nil
			}
			num.Begin(ss.Epoch, ss.FirstSeq)
			if wire.WriteAck(conn, wire.Ack{Epoch: ss.Epoch, Seq: acked, Applied: resume}) != nil {
				return nil
			}
			r.Acks.Inc()
			continue
		}

		// Every data frame consumes the next number. One before any
		// SeqStart has none: the peer does not speak the grammar, and
		// nothing it sends can be deduplicated or acknowledged.
		seq, ok := num.Take()
		if !ok {
			v.Release()
			r.Grammar.Inc()
			return nil
		}
		f := Frame{FrameView: v, Epoch: num.Epoch, Seq: seq}
		ack, ok := s.Hand(&f)
		if !ok {
			return nil
		}
		switch f.adm {
		case Stale:
			// A newer SeqStart superseded this link's numbering.
			r.Disconnects.Inc()
			return nil
		case Duplicate:
			// Skipped by the stream, but an ack-worthy one still runs the
			// durability+ack path: its sender never saw that ack.
			r.Duplicates.Inc()
		}
		if !ack {
			// No ack owed, or an intact frame that does not decode:
			// identical bytes cannot help, so the next ack covers it.
			continue
		}

		// Ack after durability: a crash in between costs a retransmission,
		// never an acknowledged frame.
		mu.Lock()
		if f.adm == Duplicate {
			// Everything ≤ seq is applied or dropped for good, even when
			// the original never settled (its payload was undecodable).
			wm.Settle(f.Epoch, seq)
		}
		isDurable := seq <= wm.Acked
		mu.Unlock()
		if !isDurable {
			if r.Checkpoint != nil {
				if err := r.Checkpoint(); err != nil {
					// Without durability the ack would lie; withhold it. The
					// sender retransmits and the duplicate re-attempts the
					// checkpoint.
					r.CheckpointErrors.Inc()
					continue
				}
			}
			mu.Lock()
			wm.Commit(f.Epoch, seq)
			mu.Unlock()
		}
		if s.Acking(&f) != nil || wire.WriteAck(conn, wire.Ack{Epoch: f.Epoch, Seq: seq, Applied: seq}) != nil {
			return nil
		}
		r.Acks.Inc()
	}
}
