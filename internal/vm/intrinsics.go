package vm

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/offheap"
)

// Intrinsic indices, resolved once at link time and cached on the
// instruction so the interpreter dispatches on an int.
const (
	inPrint = iota
	inPrintln
	inPrintRec
	inPrintlnRec
	inSqrt
	inAbs
	inExp
	inLog
	inRand
	inArraycopy
	inArraycopyRec
	inRelease
	inReleaseRec
	inIterStart
	inIterEnd
	inTrapNoReturn
)

var intrinsicIndex = map[string]int{
	"print": inPrint, "println": inPrintln,
	"printRec": inPrintRec, "printlnRec": inPrintlnRec,
	"sqrt": inSqrt, "abs": inAbs, "exp": inExp, "log": inLog,
	"rand": inRand, "arraycopy": inArraycopy, "arraycopyRec": inArraycopyRec,
	"release": inRelease, "releaseRec": inReleaseRec,
	"iterStart": inIterStart, "iterEnd": inIterEnd,
	"trapNoReturn": inTrapNoReturn,
}

// intrinsic dispatches the Sys.* builtins plus the page-half variants the
// FACADE transform substitutes ("arraycopyRec", "printRec"/"printlnRec",
// and OpStrLit's transformed twin handled in stringLiteral).
func (t *Thread) intrinsic(in *ir.Instr, regs []Value) (Value, error) {
	vm := t.vm
	idx, ok := in.Cache.(int)
	if !ok {
		return 0, fmt.Errorf("vm: unlinked intrinsic %s", in.Sym)
	}
	switch idx {
	case inPrint, inPrintln:
		s, err := t.formatValue(in.Type, regs[in.Args[0]], false)
		if err != nil {
			return 0, err
		}
		t.writeOut(s, idx == inPrintln)
		return 0, nil
	case inPrintRec, inPrintlnRec:
		s, err := t.formatValue(in.Type, regs[in.Args[0]], true)
		if err != nil {
			return 0, err
		}
		t.writeOut(s, idx == inPrintlnRec)
		return 0, nil
	case inSqrt:
		return math.Float64bits(math.Sqrt(math.Float64frombits(regs[in.Args[0]]))), nil
	case inAbs:
		return math.Float64bits(math.Abs(math.Float64frombits(regs[in.Args[0]]))), nil
	case inExp:
		return math.Float64bits(math.Exp(math.Float64frombits(regs[in.Args[0]]))), nil
	case inLog:
		return math.Float64bits(math.Log(math.Float64frombits(regs[in.Args[0]]))), nil
	case inRand:
		bound := int32(regs[in.Args[0]])
		if bound <= 0 {
			return 0, fmt.Errorf("IllegalArgumentException: Sys.rand bound %d", bound)
		}
		return Value(uint32(int32(vm.rand() % uint64(bound)))), nil
	case inArraycopy:
		return 0, t.arraycopyHeap(in, regs)
	case inArraycopyRec:
		return 0, t.arraycopyRec(in, regs)
	case inRelease:
		// Heap objects are the collector's business; nothing to do in P.
		return 0, nil
	case inReleaseRec:
		// §3.6 optimization 3: free the oversize page behind a dead large
		// record before the iteration ends.
		vm.RT.ReleaseOversize(offheap.PageRef(regs[in.Args[0]]))
		return 0, nil
	case inIterStart:
		t.IterationStart()
		return 0, nil
	case inIterEnd:
		t.iterationEnd()
		return 0, nil
	case inTrapNoReturn:
		return 0, fmt.Errorf("vm: missing return in value-returning method")
	}
	return 0, fmt.Errorf("vm: unknown intrinsic %s", in.Sym)
}

func (t *Thread) writeOut(s string, nl bool) {
	vm := t.vm
	vm.outMu.Lock()
	defer vm.outMu.Unlock()
	if nl {
		fmt.Fprintln(vm.out, s)
		return
	}
	fmt.Fprint(vm.out, s)
}

// formatValue renders a value of static type typ the way Sys.print does.
// rec selects page-record semantics for references.
func (t *Thread) formatValue(typ *lang.Type, v Value, rec bool) (string, error) {
	if typ == nil {
		return strconv.FormatInt(int64(v), 10), nil
	}
	switch typ.Kind {
	case lang.TBool:
		if v != 0 {
			return "true", nil
		}
		return "false", nil
	case lang.TByte:
		return strconv.FormatInt(int64(int8(v)), 10), nil
	case lang.TInt:
		return strconv.FormatInt(int64(int32(v)), 10), nil
	case lang.TLong:
		// In P' a "long" may be a retyped data reference; the transform
		// emits printRec for those, so a plain long prints numerically.
		return strconv.FormatInt(int64(v), 10), nil
	case lang.TDouble:
		return formatDouble(math.Float64frombits(v)), nil
	case lang.TNull:
		return "null", nil
	}
	// Reference types.
	if v == 0 {
		return "null", nil
	}
	if rec {
		ref := offheap.PageRef(v)
		rt := t.vm.RT
		if rt.IsArrayRecord(ref) {
			return rt.ArrayElemType(rt.ArrayTypeOf(ref)).String() + "[]", nil
		}
		cls := t.vm.Prog.H.ClassList[rt.ClassID(ref)]
		if orig, ok := facadeOrig(cls.Name); ok && orig == "String" || cls.Name == "StringFacade" {
			return t.recStringContents(ref)
		}
		name := cls.Name
		if orig, ok := facadeOrig(name); ok {
			name = orig
		}
		return name, nil
	}
	a := heap.Addr(v)
	hp := t.vm.Heap
	if hp.IsArray(a) {
		return hp.ArrayElemOf(a).String() + "[]", nil
	}
	cls := hp.ClassOf(a)
	if cls == t.vm.strClass && cls != nil {
		return t.heapStringContents(a)
	}
	return cls.Name, nil
}

func facadeOrig(name string) (string, bool) {
	const suf = "Facade"
	if len(name) > len(suf) && name[len(name)-len(suf):] == suf {
		return name[:len(name)-len(suf)], true
	}
	return "", false
}

// formatDouble prints doubles deterministically; both P and P' use this,
// so output equivalence is preserved.
func formatDouble(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	return s
}

// heapStringContents reads a managed String object's bytes.
func (t *Thread) heapStringContents(a heap.Addr) (string, error) {
	hp := t.vm.Heap
	arr := hp.GetRef(a, t.vm.strField.Offset)
	if arr == 0 {
		return "", nil
	}
	n := hp.ArrayLen(arr)
	return string(hp.ReadBody(arr, 0, n)), nil
}

// recStringContents reads a String page record's bytes.
func (t *Thread) recStringContents(ref offheap.PageRef) (string, error) {
	rt := t.vm.RT
	arr := rt.GetRef(ref, t.vm.strField.Offset)
	if arr == 0 {
		return "", nil
	}
	n := rt.ArrayLen(arr)
	return string(rt.ReadBody(arr, 0, n)), nil
}

func (t *Thread) arraycopyHeap(in *ir.Instr, regs []Value) error {
	hp := t.vm.Heap
	src := heap.Addr(regs[in.Args[0]])
	srcPos := int(int32(regs[in.Args[1]]))
	dst := heap.Addr(regs[in.Args[2]])
	dstPos := int(int32(regs[in.Args[3]]))
	n := int(int32(regs[in.Args[4]]))
	if src == 0 || dst == 0 {
		return errNPE("arraycopy")
	}
	if n < 0 || srcPos < 0 || dstPos < 0 ||
		srcPos+n > hp.ArrayLen(src) || dstPos+n > hp.ArrayLen(dst) {
		return errBounds(srcPos+n, hp.ArrayLen(src))
	}
	elem := hp.ArrayElemOf(src)
	es := elem.FieldSize()
	if elem.IsRef() {
		// Element-wise with the write barrier. Handle overlap like
		// System.arraycopy (memmove semantics).
		if src == dst && dstPos > srcPos {
			for i := n - 1; i >= 0; i-- {
				hp.SetRefTC(t.tc, dst, (dstPos+i)*es, hp.GetRef(src, (srcPos+i)*es))
			}
		} else {
			for i := 0; i < n; i++ {
				hp.SetRefTC(t.tc, dst, (dstPos+i)*es, hp.GetRef(src, (srcPos+i)*es))
			}
		}
		return nil
	}
	hp.CopyBody(src, srcPos*es, dst, dstPos*es, n*es)
	return nil
}

func (t *Thread) arraycopyRec(in *ir.Instr, regs []Value) error {
	rt := t.vm.RT
	src := offheap.PageRef(regs[in.Args[0]])
	srcPos := int(int32(regs[in.Args[1]]))
	dst := offheap.PageRef(regs[in.Args[2]])
	dstPos := int(int32(regs[in.Args[3]]))
	n := int(int32(regs[in.Args[4]]))
	if src == 0 || dst == 0 {
		return errNPE("arraycopy")
	}
	if n < 0 || srcPos < 0 || dstPos < 0 ||
		srcPos+n > rt.ArrayLen(src) || dstPos+n > rt.ArrayLen(dst) {
		return errBounds(srcPos+n, rt.ArrayLen(src))
	}
	es := rt.ArrayElemType(rt.ArrayTypeOf(src)).FieldSize()
	rt.ArrayCopy(src, srcPos, dst, dstPos, n, es)
	return nil
}

// ---------------------------------------------------------------------------
// String literals

// stringLiteral returns the interned representation of string pool entry
// idx: a managed String object for P, a String page record (allocated from
// the VM's root scope, alive for the program) for P'.
func (t *Thread) stringLiteral(idx int) (Value, error) {
	vm := t.vm
	t.tc.BeginExternal()
	vm.strMu.Lock()
	t.tc.EndExternal()
	defer vm.strMu.Unlock()
	if vm.strDone[idx] {
		return vm.strCache[idx], nil
	}
	s := vm.Prog.StringPool[idx]
	var v Value
	var err error
	if vm.Prog.Transformed {
		v, err = t.makeRecString(s)
	} else {
		v, err = t.makeHeapString(s)
	}
	if err != nil {
		return 0, err
	}
	vm.strCache[idx] = v
	vm.strDone[idx] = true
	return v, nil
}

// makeHeapString builds a managed String object (byte[] + String).
func (t *Thread) makeHeapString(s string) (Value, error) {
	hp := t.vm.Heap
	arr, err := hp.AllocArray(t.tc, lang.ByteType, len(s), 0)
	if err != nil {
		return 0, err
	}
	hp.WriteBody(arr, 0, []byte(s))
	h := t.vm.NewHandle(Value(arr), true)
	obj, err := hp.AllocObject(t.tc, t.vm.strClass, 0)
	if err != nil {
		t.vm.Drop(h)
		return 0, err
	}
	arr = heap.Addr(t.vm.Get(h))
	t.vm.Drop(h)
	hp.SetRef(obj, t.vm.strField.Offset, arr)
	return Value(obj), nil
}

// makeRecString builds a String page record in the VM root scope. The
// root manager is shared; strMu serializes its allocations, so the caller
// binds it to this thread for them.
func (t *Thread) makeRecString(s string) (Value, error) {
	vm := t.vm
	rt := vm.RT
	vm.rootScope.Bind(t.stopWorld)
	sf := vm.facadeOf("String")
	if sf == nil {
		return 0, fmt.Errorf("vm: transformed program has no String facade")
	}
	arr, err := vm.rootScope.AllocArray(rt.ArrayTypeIndex(lang.ByteType), 1, len(s))
	if err != nil {
		return 0, err
	}
	rt.WriteBody(arr, 0, []byte(s))
	rec, err := vm.rootScope.AllocRecord(uint16(sf.ID), vm.stringBodySize())
	if err != nil {
		return 0, err
	}
	rt.SetRef(rec, vm.strField.Offset, arr)
	return Value(rec), nil
}

// stringBodySize returns the record body size of String (taken from the
// original class layout carried on the value field's owner).
func (vm *VM) stringBodySize() int {
	return vm.strField.Owner.BodySize
}
