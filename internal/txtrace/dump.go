package txtrace

// Binary trace serialization. The format is the contract between the
// recorder, cmd/tlstm-trace, and the txcheck opacity checker, so it is
// deliberately boring: little-endian, fixed-width, versioned by an
// 8-byte magic, nothing implicit.
//
//	header:   magic "TXTRACE2" | startUnixNanos i64 | ringCount u32 |
//	          metaCount u32 | metaCount × meta
//	meta:     keyLen u32 | key bytes | valLen u32 | val bytes
//	per ring: id u32 | labelLen u32 | label bytes | drops u64 | count u64
//	          count × event
//	event:    seq u64 | time i64 | clock u64 | arg u64 | aux u32 |
//	          kind u8 | pad [3]u8                       (40 bytes)
//
// ReadTrace also accepts the previous "TXTRACE1" magic, which lacks the
// metaCount section (everything after ringCount is identical). Dump
// always writes TXTRACE2.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Magic identifies (and versions) the binary trace format.
const Magic = "TXTRACE2"

// MagicV1 is the previous format version: no metadata section.
// ReadTrace still accepts it; Dump no longer writes it.
const MagicV1 = "TXTRACE1"

// EventSize is the on-disk size of one event record.
const EventSize = 40

// RingDump is one ring's deserialized section.
type RingDump struct {
	ID     uint32
	Label  string
	Drops  uint64
	Events []Event
}

// Trace is a deserialized dump. Meta is nil for TXTRACE1 traces.
type Trace struct {
	StartUnixNanos int64
	Meta           map[string]string
	Rings          []RingDump
}

func putEvent(b []byte, e Event) {
	binary.LittleEndian.PutUint64(b[0:], e.Seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(e.Time))
	binary.LittleEndian.PutUint64(b[16:], e.Clock)
	binary.LittleEndian.PutUint64(b[24:], e.Arg)
	binary.LittleEndian.PutUint32(b[32:], e.Aux)
	b[36] = e.Kind
	b[37], b[38], b[39] = 0, 0, 0
}

func getEvent(b []byte) Event {
	return Event{
		Seq:   binary.LittleEndian.Uint64(b[0:]),
		Time:  int64(binary.LittleEndian.Uint64(b[8:])),
		Clock: binary.LittleEndian.Uint64(b[16:]),
		Arg:   binary.LittleEndian.Uint64(b[24:]),
		Aux:   binary.LittleEndian.Uint32(b[32:]),
		Kind:  b[36],
	}
}

// Dump serializes every registered ring to w. The caller must have
// quiesced every ring owner first (joined the workers / Synced the
// threads): Dump reads the owner-only cursors and buffers, and the
// quiesce is the happens-before edge that makes that sound — the same
// contract as the stats fold.
func (rec *Recorder) Dump(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	rings := rec.Rings()
	meta := rec.Meta()

	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(rec.started))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(rings)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(meta)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic dumps
	var lenBuf [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(k)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(meta[k])))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(meta[k]); err != nil {
			return err
		}
	}

	var scratch [EventSize]byte
	for _, r := range rings {
		evs := r.events()
		var rh [8]byte
		binary.LittleEndian.PutUint32(rh[0:], r.id)
		binary.LittleEndian.PutUint32(rh[4:], uint32(len(r.label)))
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(r.label); err != nil {
			return err
		}
		var rc [16]byte
		binary.LittleEndian.PutUint64(rc[0:], r.Drops())
		binary.LittleEndian.PutUint64(rc[8:], uint64(len(evs)))
		if _, err := bw.Write(rc[:]); err != nil {
			return err
		}
		for _, e := range evs {
			putEvent(scratch[:], e)
			if _, err := bw.Write(scratch[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxLabelLen bounds label allocations when parsing untrusted input;
// eventCapHint bounds the event capacity a ring header's count may
// pre-allocate (a longer ring grows by append as its events arrive).
const (
	maxLabelLen  = 1 << 16
	eventCapHint = 1 << 12
)

// ReadTrace deserializes a dump produced by Recorder.Dump.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("txtrace: reading magic: %w", err)
	}
	if string(magic) != Magic && string(magic) != MagicV1 {
		return nil, fmt.Errorf("txtrace: bad magic %q (not a %s trace)", magic, Magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("txtrace: reading header: %w", err)
	}
	tr := &Trace{StartUnixNanos: int64(binary.LittleEndian.Uint64(hdr[0:]))}
	ringCount := binary.LittleEndian.Uint32(hdr[8:])
	if string(magic) == Magic {
		var mc [4]byte
		if _, err := io.ReadFull(br, mc[:]); err != nil {
			return nil, fmt.Errorf("txtrace: reading meta count: %w", err)
		}
		// The count is untrusted: it sizes nothing up front (a 32-bit
		// hint alone would ask for hundreds of GB), and a count the
		// stream cannot back runs into EOF below.
		metaCount := binary.LittleEndian.Uint32(mc[:])
		if metaCount > 0 {
			tr.Meta = make(map[string]string)
		}
		for i := uint32(0); i < metaCount; i++ {
			key, err := readLenString(br)
			if err != nil {
				return nil, fmt.Errorf("txtrace: meta %d key: %w", i, err)
			}
			val, err := readLenString(br)
			if err != nil {
				return nil, fmt.Errorf("txtrace: meta %d value: %w", i, err)
			}
			tr.Meta[key] = val
		}
	}

	var scratch [EventSize]byte
	for i := uint32(0); i < ringCount; i++ {
		var rh [8]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return nil, fmt.Errorf("txtrace: ring %d header: %w", i, err)
		}
		rd := RingDump{ID: binary.LittleEndian.Uint32(rh[0:])}
		labelLen := binary.LittleEndian.Uint32(rh[4:])
		if labelLen > maxLabelLen {
			return nil, fmt.Errorf("txtrace: ring %d label length %d exceeds limit", i, labelLen)
		}
		label := make([]byte, labelLen)
		if _, err := io.ReadFull(br, label); err != nil {
			return nil, fmt.Errorf("txtrace: ring %d label: %w", i, err)
		}
		rd.Label = string(label)
		var rc [16]byte
		if _, err := io.ReadFull(br, rc[:]); err != nil {
			return nil, fmt.Errorf("txtrace: ring %d counts: %w", i, err)
		}
		rd.Drops = binary.LittleEndian.Uint64(rc[0:])
		count := binary.LittleEndian.Uint64(rc[8:])
		rd.Events = make([]Event, 0, min(count, eventCapHint))
		for j := uint64(0); j < count; j++ {
			if _, err := io.ReadFull(br, scratch[:]); err != nil {
				return nil, fmt.Errorf("txtrace: ring %d event %d: %w", i, j, err)
			}
			rd.Events = append(rd.Events, getEvent(scratch[:]))
		}
		tr.Rings = append(tr.Rings, rd)
	}
	// A well-formed stream ends exactly here.
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, errors.New("txtrace: trailing bytes after last ring")
		}
		return nil, err
	}
	return tr, nil
}

// readLenString reads a u32 length-prefixed string, bounded like labels.
func readLenString(br *bufio.Reader) (string, error) {
	var lb [4]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n > maxLabelLen {
		return "", fmt.Errorf("length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// Validate checks the structural invariants a sound dump must have:
// per-ring monotonic sequences (consecutive, given drops offset the
// start), known kinds, and non-decreasing timestamps per ring. It
// returns the first violation found.
func (t *Trace) Validate() error {
	for _, rd := range t.Rings {
		var prevSeq uint64
		var prevTime int64
		for i, e := range rd.Events {
			if e.Kind == 0 || Kind(e.Kind) >= kindMax {
				return fmt.Errorf("ring %d (%s): event %d has unknown kind %d", rd.ID, rd.Label, i, e.Kind)
			}
			if i > 0 {
				if e.Seq != prevSeq+1 {
					return fmt.Errorf("ring %d (%s): sequence gap %d -> %d at event %d (torn or reordered record)",
						rd.ID, rd.Label, prevSeq, e.Seq, i)
				}
				if e.Time < prevTime {
					return fmt.Errorf("ring %d (%s): time regression %d -> %d at event %d",
						rd.ID, rd.Label, prevTime, e.Time, i)
				}
			} else if rd.Drops > 0 && e.Seq != rd.Drops {
				return fmt.Errorf("ring %d (%s): first retained seq %d does not match drop count %d",
					rd.ID, rd.Label, e.Seq, rd.Drops)
			}
			prevSeq, prevTime = e.Seq, e.Time
		}
	}
	return nil
}
