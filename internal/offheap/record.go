package offheap

import (
	"encoding/binary"
	"math"
)

// Record accessors. Field offsets are the same byte offsets the managed
// heap uses (computed once per class in internal/lang), so the synthesized
// conversion functions are field-by-field copies with no remapping.
//
// Every accessor has one path, tiered or not: resolve the page through the
// lock-free copy-on-write table, load its tier state once, and promote it
// (touch) only when it is not hot. Untiered pages are always hot. No
// accessor evicts, so the bytes it resolved stay valid for the whole
// operation — eviction waits for the world to stop (tier.go).

func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
func getU16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// bytes resolves ref to the record's bytes, header first.
func (rt *Runtime) bytes(ref PageRef) []byte { return rt.resolve(ref, false) }

// body resolves ref to the record's body, past its header.
func (rt *Runtime) body(ref PageRef) []byte { return rt.resolve(ref, true) }

// resolve is the accessors' one path (kept a single call deep).
func (rt *Runtime) resolve(ref PageRef, body bool) []byte {
	idx, off := splitRef(ref)
	p := (*rt.table.Load())[idx]
	if p.state.Load() != pageHot {
		rt.touch(p)
	}
	b := p.buf[off:]
	if !body {
		return b
	}
	if getU16(b)&arrayTypeBit != 0 {
		return b[ArrayHeader:]
	}
	return b[ScalarHeader:]
}

// TypeID returns the record's raw type word (class ID, or array bit |
// array type index).
func (rt *Runtime) TypeID(ref PageRef) uint16 {
	return getU16(rt.bytes(ref))
}

// IsArrayRecord reports whether ref names an array record.
func (rt *Runtime) IsArrayRecord(ref PageRef) bool {
	return rt.TypeID(ref)&arrayTypeBit != 0
}

// ClassID returns the class ID of a scalar record.
func (rt *Runtime) ClassID(ref PageRef) int { return int(rt.TypeID(ref)) }

// ArrayTypeOf returns the array type index of an array record.
func (rt *Runtime) ArrayTypeOf(ref PageRef) int {
	return int(rt.TypeID(ref) &^ arrayTypeBit)
}

// ArrayLen returns the length of an array record.
func (rt *Runtime) ArrayLen(ref PageRef) int {
	return int(getU32(rt.bytes(ref)[4:]))
}

// GetLockID reads the record's 2-byte lock field.
func (rt *Runtime) GetLockID(ref PageRef) uint16 {
	return getU16(rt.bytes(ref)[2:])
}

// SetLockID writes the record's lock field. Callers serialize through the
// lock pool.
func (rt *Runtime) SetLockID(ref PageRef, id uint16) {
	putU16(rt.bytes(ref)[2:], id)
}

// GetByte reads a byte/boolean slot.
func (rt *Runtime) GetByte(ref PageRef, off int) int8 {
	return int8(rt.body(ref)[off])
}

// SetByte writes a byte/boolean slot.
func (rt *Runtime) SetByte(ref PageRef, off int, v int8) {
	rt.body(ref)[off] = byte(v)
}

// GetInt reads an int slot.
func (rt *Runtime) GetInt(ref PageRef, off int) int32 {
	return int32(getU32(rt.body(ref)[off:]))
}

// SetInt writes an int slot.
func (rt *Runtime) SetInt(ref PageRef, off int, v int32) {
	putU32(rt.body(ref)[off:], uint32(v))
}

// GetLong reads a long slot (also used for reference slots, which store
// page references).
func (rt *Runtime) GetLong(ref PageRef, off int) int64 {
	return int64(getU64(rt.body(ref)[off:]))
}

// SetLong writes a long slot.
func (rt *Runtime) SetLong(ref PageRef, off int, v int64) {
	putU64(rt.body(ref)[off:], uint64(v))
}

// GetDouble reads a double slot.
func (rt *Runtime) GetDouble(ref PageRef, off int) float64 {
	return math.Float64frombits(getU64(rt.body(ref)[off:]))
}

// SetDouble writes a double slot.
func (rt *Runtime) SetDouble(ref PageRef, off int, v float64) {
	putU64(rt.body(ref)[off:], math.Float64bits(v))
}

// GetRef reads a reference slot (a nested page reference).
func (rt *Runtime) GetRef(ref PageRef, off int) PageRef { return rt.GetLong(ref, off) }

// SetRef writes a reference slot. There is no write barrier: nothing
// traces these pages — that is the optimization.
func (rt *Runtime) SetRef(ref PageRef, off int, v PageRef) { rt.SetLong(ref, off, v) }

// WriteBody copies data into the record body at off (bulk byte-array
// fills).
func (rt *Runtime) WriteBody(ref PageRef, off int, data []byte) {
	copy(rt.body(ref)[off:], data)
}

// ReadBody copies n body bytes starting at off out of the record.
func (rt *Runtime) ReadBody(ref PageRef, off, n int) []byte {
	out := make([]byte, n)
	copy(out, rt.body(ref)[off:])
	return out
}

// ArrayCopy copies n elements of elemSize bytes between array records,
// the native-memory model of System.arraycopy. Resolving dst cannot evict
// src, so both byte slices stay valid for the copy.
func (rt *Runtime) ArrayCopy(src PageRef, srcPos int, dst PageRef, dstPos, n, elemSize int) {
	sb := rt.body(src)
	db := rt.body(dst)
	copy(db[dstPos*elemSize:(dstPos+n)*elemSize], sb[srcPos*elemSize:(srcPos+n)*elemSize])
}
