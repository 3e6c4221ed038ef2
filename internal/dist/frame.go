// Package dist executes one compiled instance across processes: the
// sharded engine's partition (internal/shard) is split over a set of
// workers, each of which owns one shard and runs sim's per-shard round
// step (sim.ShardStep) on it — the step the in-process kernel runs.
// This package is the step's second halo transport: where the kernel
// hands a shard's halo-out buffer to its neighbours in memory, a worker
// flushes it as length-prefixed TCP frames, one frame per cut-edge
// block per round, and decodes each incoming frame into the segment it
// drains.  Synchronization is per pair, not global: a worker blocks
// only on the peers it actually shares cut edges with, tracked by a
// generation counter per incoming segment (see staging).
//
// Two deployments share the one frame protocol and shard executor:
//
//   - Cluster is a loopback sim.DistRunner — in-process workers over
//     real 127.0.0.1 sockets — behind the sim.Distributed engine, so
//     the cross-engine equivalence suite runs the full wire path under
//     `go test`.
//   - Coordinator/Worker run the same plan across OS processes for
//     anoncoverd: the coordinator owns the partition and the request
//     lifecycle, workers own shards, receive their shard.Shard in a
//     WorkerPlan and rebuild node programs from it.
//
// Wire rounds travel verbatim: a frame's payload is the raw []uint64
// lane segment, stale words included — the lane protocol's round
// stamps (sim.WirePortProgram) make shipping them safe, exactly as the
// in-memory sharded engine copies whole halo segments.  Boxed rounds,
// broadcast rounds among them, travel as self-contained gob frames.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"anoncover/internal/sim"
)

// Frame header, 24 bytes little-endian:
//
//	off 0  magic   u32  "ANCv"
//	off 4  version u8
//	off 5  type    u8
//	off 6  src     u16  sending shard / worker id
//	off 8  dst     u16  receiving shard / worker id
//	off 10 flags   u16  reserved, zero
//	off 12 run     u32  run id (or request nonce on control frames)
//	off 16 round   u32  1-based round for fLanes/fBoxed, else zero
//	off 20 length  u32  payload bytes
const (
	frameMagic   = 0x7643_4e41 // "ANCv"
	frameVersion = 1
	headerLen    = 24

	// maxFramePayload bounds a single frame.  Halo segments are the
	// largest legitimate payloads (lane width × cut size × 8 bytes);
	// anything above this is a corrupted length field, not data.
	maxFramePayload = 1 << 30
)

// Frame types.
const (
	fHello     byte = iota + 1 // worker → coordinator: control-conn ident
	fPeerHello                 // worker → worker: attach conn to (session, pair)
	fSetup                     // coordinator → worker: gob WorkerPlan
	fReady                     // worker → coordinator: generic ack (setup, prepare, close)
	fStart                     // coordinator → worker: gob StartSpec; prepare run `run`
	fGo                        // coordinator → worker: all peers prepared, execute run `run`
	fLanes                     // worker → worker: raw little-endian lane words
	fBoxed                     // worker → worker: gob boxedSeg
	fOutputs                   // worker → coordinator: gob outputsMsg
	fError                     // either direction: 1-byte code + message text
	fAbort                     // coordinator → worker: cancel run `run`
	fWeights                   // coordinator → worker: gob weightsMsg
	fWeightsOK                 // worker → coordinator: weights installed
	fPing                      // coordinator → worker: health probe
	fPong                      // worker → coordinator: health reply
	fClose                     // coordinator → worker: tear down session (8-byte LE id)
	fTrace                     // worker → coordinator: gob obs.ShardSpans for a failed run
	fMaxType   = fTrace
)

// fError payload codes, mapped back to sentinel errors at the
// coordinator so run-level semantics (wire overflow, budget, context)
// survive the process boundary.
const (
	ecInternal byte = iota + 1
	ecOverflow
	ecBudget
	ecCanceled
	ecDeadline
	ecDraining
	ecBadRequest
)

// ErrBadFrame tags every framing-level failure: bad magic, unknown
// type, oversized length, truncated payload.  Transport users match it
// to distinguish protocol corruption from ordinary socket errors.
var ErrBadFrame = errors.New("dist: malformed frame")

// frame is one decoded protocol frame.
type frame struct {
	typ      byte
	src, dst uint16
	run      uint32
	round    uint32
	payload  []byte
}

// appendFrame serializes f, returning the extended buffer.
func appendFrame(buf []byte, f *frame) []byte {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = frameVersion
	hdr[5] = f.typ
	binary.LittleEndian.PutUint16(hdr[6:], f.src)
	binary.LittleEndian.PutUint16(hdr[8:], f.dst)
	binary.LittleEndian.PutUint16(hdr[10:], 0)
	binary.LittleEndian.PutUint32(hdr[12:], f.run)
	binary.LittleEndian.PutUint32(hdr[16:], f.round)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(f.payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, f.payload...)
}

// parseHeader validates a raw header and returns the frame shell (no
// payload) plus the declared payload length.
func parseHeader(hdr []byte) (frame, int, error) {
	if len(hdr) < headerLen {
		return frame{}, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadFrame, len(hdr))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != frameMagic {
		return frame{}, 0, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, m)
	}
	if v := hdr[4]; v != frameVersion {
		return frame{}, 0, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	f := frame{
		typ:   hdr[5],
		src:   binary.LittleEndian.Uint16(hdr[6:]),
		dst:   binary.LittleEndian.Uint16(hdr[8:]),
		run:   binary.LittleEndian.Uint32(hdr[12:]),
		round: binary.LittleEndian.Uint32(hdr[16:]),
	}
	if f.typ == 0 || f.typ > fMaxType {
		return frame{}, 0, fmt.Errorf("%w: unknown type %d", ErrBadFrame, f.typ)
	}
	if fl := binary.LittleEndian.Uint16(hdr[10:]); fl != 0 {
		return frame{}, 0, fmt.Errorf("%w: nonzero flags %#x", ErrBadFrame, fl)
	}
	n := binary.LittleEndian.Uint32(hdr[20:])
	if n > maxFramePayload {
		return frame{}, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrBadFrame, n)
	}
	return f, int(n), nil
}

// decodeFrame reads one frame from r.
func decodeFrame(r io.Reader) (frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	f, n, err := parseHeader(hdr[:])
	if err != nil {
		return frame{}, err
	}
	if n > 0 {
		f.payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, fmt.Errorf("%w: payload: %v", ErrBadFrame, err)
		}
	}
	return f, nil
}

// lanesToBytes appends the little-endian byte image of a lane segment.
func lanesToBytes(buf []byte, words []uint64) []byte {
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// bytesToLanes decodes a lane payload in place over dst, which must be
// exactly len(b)/8 words long; a length mismatch is a protocol error.
func bytesToLanes(dst []uint64, b []byte) error {
	if len(b)%8 != 0 || len(b)/8 != len(dst) {
		return fmt.Errorf("%w: lane payload %d bytes, want %d words", ErrBadFrame, len(b), len(dst))
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return nil
}

// boxedSeg is the sparse gob image of one boxed halo segment: Pos[i]
// is the index within the segment's slot list, Msgs[i] the non-nil
// message bound for it.  Slots not listed carried nil that round — the
// receiver nils the whole segment before applying, which is exactly
// the in-memory engines' behaviour of rewriting every slot every boxed
// round.
type boxedSeg struct {
	Pos  []int32
	Msgs []sim.Message
}

// encodeBoxed gobs the non-nil messages of one halo segment slice.
func encodeBoxed(seg []sim.Message) ([]byte, error) {
	var bs boxedSeg
	for i, m := range seg {
		if m != nil {
			bs.Pos = append(bs.Pos, int32(i))
			bs.Msgs = append(bs.Msgs, m)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&bs); err != nil {
		return nil, fmt.Errorf("dist: encoding boxed segment: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBoxed parses a boxed segment bound for a segment of segLen
// slots, validating every index.
func decodeBoxed(b []byte, segLen int) (boxedSeg, error) {
	var bs boxedSeg
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&bs); err != nil {
		return boxedSeg{}, fmt.Errorf("%w: boxed segment: %v", ErrBadFrame, err)
	}
	if len(bs.Pos) != len(bs.Msgs) {
		return boxedSeg{}, fmt.Errorf("%w: boxed segment: %d positions for %d messages",
			ErrBadFrame, len(bs.Pos), len(bs.Msgs))
	}
	for _, p := range bs.Pos {
		if p < 0 || int(p) >= segLen {
			return boxedSeg{}, fmt.Errorf("%w: boxed segment: slot %d out of range [0,%d)",
				ErrBadFrame, p, segLen)
		}
	}
	return bs, nil
}
