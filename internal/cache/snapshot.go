package cache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/edge-immersion/coic/internal/feature"
)

// Snapshot/Restore persist a SimilarityCache so an edge restart does not
// throw away the community's accumulated IC results (a cold edge punishes
// every user with cloud round trips until the cache refills).
//
// Format ("CSNP"):
//
//	magic "CSNP" | version u16 | count u32
//	per entry: descLen u32, desc bytes, valueLen u32, value bytes, cost f64
//	crc32 (IEEE, over everything before it)
//
// The cache keeps every resident entry's marshalled descriptor for
// exactly this purpose.

const (
	snapMagic   = "CSNP"
	snapVersion = 1
)

// ErrBadSnapshot is wrapped by Restore failures.
var ErrBadSnapshot = errors.New("cache: malformed snapshot")

// Snapshot writes all resident entries in key order. Restore re-inserts
// entries individually and the eviction policy re-ranks them.
func (sc *SimilarityCache) Snapshot(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	keys, descs := sc.residentDescs()
	type entry struct {
		desc, value []byte
		cost        float64
	}
	var entries []entry
	for _, k := range keys {
		value, ok := sc.store.Get(k)
		if !ok {
			continue // evicted between listing and reading
		}
		meta, _ := sc.store.Meta(k)
		entries = append(entries, entry{desc: descs[k], value: value, cost: meta.Cost})
	}

	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(snapVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(e.desc))); err != nil {
			return err
		}
		if _, err := bw.Write(e.desc); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(e.value))); err != nil {
			return err
		}
		if _, err := bw.Write(e.value); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, e.cost); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// Restore inserts every snapshot entry into the cache (on top of whatever
// is already resident). It verifies the trailing CRC before touching the
// cache, so a corrupt snapshot cannot half-apply.
func (sc *SimilarityCache) Restore(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("%w: read: %v", ErrBadSnapshot, err)
	}
	if len(data) < 14 {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadSnapshot, len(data))
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail) {
		return 0, fmt.Errorf("%w: crc mismatch", ErrBadSnapshot)
	}
	if string(payload[:4]) != snapMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint16(payload[4:]); v != snapVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	count := binary.LittleEndian.Uint32(payload[6:])
	off := 10

	take := func(n int) ([]byte, error) {
		if n < 0 || off+n > len(payload) {
			return nil, fmt.Errorf("%w: truncated at %d", ErrBadSnapshot, off)
		}
		b := payload[off : off+n]
		off += n
		return b, nil
	}
	restored := 0
	for i := uint32(0); i < count; i++ {
		lenBytes, err := take(4)
		if err != nil {
			return restored, err
		}
		descBytes, err := take(int(binary.LittleEndian.Uint32(lenBytes)))
		if err != nil {
			return restored, err
		}
		lenBytes, err = take(4)
		if err != nil {
			return restored, err
		}
		value, err := take(int(binary.LittleEndian.Uint32(lenBytes)))
		if err != nil {
			return restored, err
		}
		costBytes, err := take(8)
		if err != nil {
			return restored, err
		}
		desc, err := feature.Unmarshal(descBytes)
		if err != nil {
			return restored, fmt.Errorf("%w: entry %d: %v", ErrBadSnapshot, i, err)
		}
		cost := float64frombits(binary.LittleEndian.Uint64(costBytes))
		if err := sc.Insert(desc, value, cost); err != nil {
			// Entry no longer fits (smaller capacity than the snapshot's
			// source); skip rather than fail the whole restore.
			continue
		}
		restored++
	}
	if off != len(payload) {
		return restored, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(payload)-off)
	}
	return restored, nil
}

// float64frombits mirrors math.Float64frombits without pulling math into
// the hot import path twice.
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }
