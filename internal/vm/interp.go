package vm

import (
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/offheap"
)

// Runtime error constructors, mirroring the JVM exceptions FJ programs can
// trigger. FJ has no catch; these unwind to the Call boundary as Go
// errors.
func errNPE(what string) error { return fmt.Errorf("NullPointerException: %s", what) }

func errBounds(i, n int) error {
	return fmt.Errorf("ArrayIndexOutOfBoundsException: index %d, length %d", i, n)
}

// exec interprets fn with the given arguments and returns its raw result.
// It is the boundary entry path (Thread.Call); interpreted call
// instructions take the leaner callFn path, which copies arguments
// caller-register -> callee-register without building an argument slice.
func (t *Thread) exec(fn *ir.Func, args []Value) (Value, error) {
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args))
	}
	regs, onStack := t.allocRegs(fn.NumRegs)
	for i, p := range fn.Params {
		regs[p] = args[i]
	}
	t.frames = append(t.frames, frame{fn: fn, regs: regs})
	v, err := t.run(fn, regs)
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		t.flushObsCounters()
	}
	t.freeRegs(fn.NumRegs, onStack)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// callFn dispatches an interpreted call instruction: the callee's register
// window comes from the thread stack, arguments are copied directly from
// the caller's registers, and the frame is pushed by value into reserved
// capacity — the hot call path allocates nothing.
func (t *Thread) callFn(callee *ir.Func, regs []Value, in *ir.Instr, recv Value, hasRecv bool) (Value, error) {
	params := callee.Params
	pi := 0
	if hasRecv {
		pi = 1
	}
	if len(in.Args)+pi != len(params) {
		return 0, fmt.Errorf("vm: %s expects %d args, got %d", callee.Name, len(params), len(in.Args)+pi)
	}
	cregs, onStack := t.allocRegs(callee.NumRegs)
	if hasRecv {
		cregs[params[0]] = recv
	}
	for _, r := range in.Args {
		cregs[params[pi]] = regs[r]
		pi++
	}
	t.frames = append(t.frames, frame{fn: callee, regs: cregs})
	v, err := t.run(callee, cregs)
	t.frames = t.frames[:len(t.frames)-1]
	t.freeRegs(callee.NumRegs, onStack)
	return v, err
}

// opHandler executes one instruction outside the dispatch loop's inline
// fast path. The table below is precomputed at package init, so cold ops
// dispatch through one indirect call while the hot ops stay inline in run.
type opHandler func(t *Thread, regs []Value, in *ir.Instr) error

var opHandlers [ir.NumOps]opHandler

func init() {
	opHandlers[ir.OpNop] = func(t *Thread, regs []Value, in *ir.Instr) error { return nil }
	opHandlers[ir.OpStrLit] = hStrLit
	opHandlers[ir.OpNewArr] = hNewArr
	opHandlers[ir.OpLoadStatic] = hLoadStatic
	opHandlers[ir.OpStoreStatic] = hStoreStatic
	opHandlers[ir.OpInstOf] = hInstOf
	opHandlers[ir.OpCast] = hCast
	opHandlers[ir.OpMonEnter] = hMonEnter
	opHandlers[ir.OpMonExit] = hMonExit
	opHandlers[ir.OpPNewArr] = hPNewArr
	opHandlers[ir.OpPInstOf] = hPInstOf
	opHandlers[ir.OpPCast] = hPCast
	opHandlers[ir.OpPMonEnter] = hPMonEnter
	opHandlers[ir.OpPMonExit] = hPMonExit
}

func hStrLit(t *Thread, regs []Value, in *ir.Instr) error {
	a, err := t.stringLiteral(int(in.Imm))
	if err != nil {
		return err
	}
	regs[in.Dst] = a
	return nil
}

func hNewArr(t *Thread, regs []Value, in *ir.Instr) error {
	n := int(int32(regs[in.A]))
	if n < 0 {
		return fmt.Errorf("NegativeArraySizeException: %d", n)
	}
	a, err := t.vm.Heap.AllocArray(t.tc, in.Type, n, in.Site)
	if err != nil {
		return err
	}
	regs[in.Dst] = Value(a)
	return nil
}

func hLoadStatic(t *Thread, regs []Value, in *ir.Instr) error {
	regs[in.Dst] = t.vm.statics[in.Field.StaticIndex]
	return nil
}

func hStoreStatic(t *Thread, regs []Value, in *ir.Instr) error {
	t.vm.statics[in.Field.StaticIndex] = regs[in.A]
	return nil
}

func hInstOf(t *Thread, regs []Value, in *ir.Instr) error {
	regs[in.Dst] = boolVal(t.instanceOf(heap.Addr(regs[in.A]), in.Type))
	return nil
}

func hCast(t *Thread, regs []Value, in *ir.Instr) error {
	a := heap.Addr(regs[in.A])
	if a != 0 && !t.instanceOf(a, in.Type) {
		return fmt.Errorf("ClassCastException: cannot cast to %s", in.Type)
	}
	regs[in.Dst] = regs[in.A]
	return nil
}

func hMonEnter(t *Thread, regs []Value, in *ir.Instr) error {
	return t.monEnter(heap.Addr(regs[in.A]))
}

func hMonExit(t *Thread, regs []Value, in *ir.Instr) error {
	return t.monExit(heap.Addr(regs[in.A]))
}

func hPNewArr(t *Thread, regs []Value, in *ir.Instr) error {
	vm := t.vm
	n := int(int32(regs[in.A]))
	ref, err := t.iter.Current().AllocArray(vm.RT.ArrayTypeIndex(in.Type), in.Type.FieldSize(), n)
	if err != nil {
		return err
	}
	regs[in.Dst] = Value(ref)
	return nil
}

func hPInstOf(t *Thread, regs []Value, in *ir.Instr) error {
	regs[in.Dst] = boolVal(t.recInstanceOf(offheap.PageRef(regs[in.A]), in))
	return nil
}

func hPCast(t *Thread, regs []Value, in *ir.Instr) error {
	ref := offheap.PageRef(regs[in.A])
	if ref != 0 && !t.recInstanceOf(ref, in) {
		return fmt.Errorf("ClassCastException: record is not a %s", in.Cls.Name)
	}
	regs[in.Dst] = regs[in.A]
	return nil
}

func hPMonEnter(t *Thread, regs []Value, in *ir.Instr) error {
	vm := t.vm
	return vm.RT.Locks.Enter(vm.RT, offheap.PageRef(regs[in.A]), t, parker{t})
}

func hPMonExit(t *Thread, regs []Value, in *ir.Instr) error {
	vm := t.vm
	return vm.RT.Locks.Exit(vm.RT, offheap.PageRef(regs[in.A]), t)
}

// run interprets fn until it returns. Dispatch is two-level: the hottest
// ops are inline cases of the dense switch (compiled to a jump table),
// with integer and double arithmetic fully unboxed in the loop; everything
// else goes through the precomputed opHandlers table. Safepoints are
// polled on calls and backward control-flow edges only — every loop must
// take a backward edge, so GC latency is unchanged while forward branches
// skip the atomic load.
func (t *Thread) run(fn *ir.Func, regs []Value) (Value, error) {
	vm := t.vm
	hp := vm.Heap
	bi := 0
blocks:
	for {
		instrs := fn.Blocks[bi].Instrs
		t.instrs += int64(len(instrs))
		for ii := range instrs {
			in := &instrs[ii]
			switch in.Op {
			case ir.OpConst:
				if in.NumKind == ir.KDouble {
					regs[in.Dst] = math.Float64bits(in.F)
				} else {
					regs[in.Dst] = Value(in.Imm)
				}
			case ir.OpMove:
				regs[in.Dst] = regs[in.A]
			case ir.OpBin:
				a, b := regs[in.A], regs[in.B]
				switch in.NumKind {
				case ir.KInt, ir.KByte, ir.KBool:
					x, y := int32(a), int32(b)
					var v Value
					switch in.Sub {
					case ir.BinAdd:
						v = Value(uint32(x + y))
					case ir.BinSub:
						v = Value(uint32(x - y))
					case ir.BinMul:
						v = Value(uint32(x * y))
					case ir.BinLt:
						v = boolVal(x < y)
					case ir.BinLe:
						v = boolVal(x <= y)
					case ir.BinGt:
						v = boolVal(x > y)
					case ir.BinGe:
						v = boolVal(x >= y)
					case ir.BinEq:
						v = boolVal(x == y)
					case ir.BinNe:
						v = boolVal(x != y)
					default:
						// Div/rem (zero checks) and bit ops share evalBin.
						var err error
						v, err = evalBin(in, a, b)
						if err != nil {
							return 0, err
						}
					}
					regs[in.Dst] = v
				case ir.KDouble:
					x, y := math.Float64frombits(a), math.Float64frombits(b)
					var v Value
					switch in.Sub {
					case ir.BinAdd:
						v = math.Float64bits(x + y)
					case ir.BinSub:
						v = math.Float64bits(x - y)
					case ir.BinMul:
						v = math.Float64bits(x * y)
					case ir.BinDiv:
						v = math.Float64bits(x / y)
					case ir.BinLt:
						v = boolVal(x < y)
					case ir.BinLe:
						v = boolVal(x <= y)
					case ir.BinGt:
						v = boolVal(x > y)
					case ir.BinGe:
						v = boolVal(x >= y)
					case ir.BinEq:
						v = boolVal(x == y)
					case ir.BinNe:
						v = boolVal(x != y)
					default:
						var err error
						v, err = evalBin(in, a, b)
						if err != nil {
							return 0, err
						}
					}
					regs[in.Dst] = v
				default:
					v, err := evalBin(in, a, b)
					if err != nil {
						return 0, err
					}
					regs[in.Dst] = v
				}
			case ir.OpUn:
				regs[in.Dst] = evalUn(in, regs[in.A])
			case ir.OpConv:
				regs[in.Dst] = evalConv(in.NumKind, in.NumKind2, regs[in.A])

			case ir.OpNew:
				a, err := hp.AllocObject(t.tc, in.Cls, in.Site)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = Value(a)
			case ir.OpLoad:
				obj := heap.Addr(regs[in.A])
				if obj == 0 {
					return 0, errNPE("field read " + in.Field.Name)
				}
				regs[in.Dst] = loadField(hp, obj, in.Field)
			case ir.OpStore:
				obj := heap.Addr(regs[in.A])
				if obj == 0 {
					return 0, errNPE("field write " + in.Field.Name)
				}
				storeField(hp, t.tc, obj, in.Field, regs[in.B])
			case ir.OpALoad:
				arr := heap.Addr(regs[in.A])
				if arr == 0 {
					return 0, errNPE("array read")
				}
				i := int(int32(regs[in.B]))
				n := hp.ArrayLen(arr)
				if i < 0 || i >= n {
					return 0, errBounds(i, n)
				}
				regs[in.Dst] = loadElem(hp, arr, in.Type, i)
			case ir.OpAStore:
				arr := heap.Addr(regs[in.A])
				if arr == 0 {
					return 0, errNPE("array write")
				}
				i := int(int32(regs[in.B]))
				n := hp.ArrayLen(arr)
				if i < 0 || i >= n {
					return 0, errBounds(i, n)
				}
				storeElem(hp, t.tc, arr, in.Type, i, regs[in.C])
			case ir.OpALen:
				arr := heap.Addr(regs[in.A])
				if arr == 0 {
					return 0, errNPE("array length")
				}
				regs[in.Dst] = Value(uint32(hp.ArrayLen(arr)))

			case ir.OpCall:
				t.safepoint()
				if p := vm.cancel.Load(); p != nil {
					return 0, *p
				}
				recv := heap.Addr(regs[in.A])
				if recv == 0 {
					return 0, errNPE("virtual call " + in.M.Name)
				}
				cls := hp.ClassOf(recv)
				if cls == nil {
					return 0, fmt.Errorf("vm: virtual call on array receiver")
				}
				callee := vm.vtables[cls.ID][int(in.Imm)]
				if callee == nil {
					return 0, fmt.Errorf("vm: %s has no implementation of %s", cls.Name, in.M.Name)
				}
				v, err := t.callFn(callee, regs, in, Value(recv), true)
				if err != nil {
					return 0, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}
			case ir.OpCallStatic:
				t.safepoint()
				if p := vm.cancel.Load(); p != nil {
					return 0, *p
				}
				callee := in.Cache.(*ir.Func)
				hasRecv := in.A != ir.NoReg
				var recv Value
				if hasRecv {
					recv = regs[in.A]
				}
				v, err := t.callFn(callee, regs, in, recv, hasRecv)
				if err != nil {
					return 0, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}
			case ir.OpRet:
				if in.A == ir.NoReg {
					return 0, nil
				}
				return regs[in.A], nil
			case ir.OpJump:
				if in.Blk <= bi {
					t.safepoint()
					if p := vm.cancel.Load(); p != nil {
						return 0, *p
					}
				}
				bi = in.Blk
				continue blocks
			case ir.OpBranch:
				nxt := in.Blk2
				if regs[in.A] != 0 {
					nxt = in.Blk
				}
				if nxt <= bi {
					t.safepoint()
					if p := vm.cancel.Load(); p != nil {
						return 0, *p
					}
				}
				bi = nxt
				continue blocks
			case ir.OpIntr:
				// Pure-math intrinsics run inline; everything else (I/O,
				// iteration control, arraycopy) pays the intrinsic call.
				if in.Dst != ir.NoReg {
					switch int(in.Imm) {
					case inSqrt:
						regs[in.Dst] = math.Float64bits(math.Sqrt(math.Float64frombits(regs[in.Args[0]])))
						continue
					case inAbs:
						regs[in.Dst] = math.Float64bits(math.Abs(math.Float64frombits(regs[in.Args[0]])))
						continue
					}
				}
				v, err := t.intrinsic(in, regs)
				if err != nil {
					return 0, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}

			// --- Page half (program P') ---
			case ir.OpPNew:
				ref, err := t.iter.Current().AllocRecord(uint16(in.Cls.ID), int(in.Imm))
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = Value(ref)
			case ir.OpPLoad:
				ref := offheap.PageRef(regs[in.A])
				if ref == 0 {
					return 0, errNPE("record read " + in.Field.Name)
				}
				regs[in.Dst] = loadRecField(vm.RT, ref, in.Field)
			case ir.OpPStore:
				ref := offheap.PageRef(regs[in.A])
				if ref == 0 {
					return 0, errNPE("record write " + in.Field.Name)
				}
				storeRecField(vm.RT, ref, in.Field, regs[in.B])
			case ir.OpPALoad:
				ref := offheap.PageRef(regs[in.A])
				if ref == 0 {
					return 0, errNPE("array record read")
				}
				i := int(int32(regs[in.B]))
				n := vm.RT.ArrayLen(ref)
				if i < 0 || i >= n {
					return 0, errBounds(i, n)
				}
				regs[in.Dst] = loadRecElem(vm.RT, ref, in.Type, i)
			case ir.OpPAStore:
				ref := offheap.PageRef(regs[in.A])
				if ref == 0 {
					return 0, errNPE("array record write")
				}
				i := int(int32(regs[in.B]))
				n := vm.RT.ArrayLen(ref)
				if i < 0 || i >= n {
					return 0, errBounds(i, n)
				}
				storeRecElem(vm.RT, ref, in.Type, i, regs[in.C])
			case ir.OpPALen:
				ref := offheap.PageRef(regs[in.A])
				if ref == 0 {
					return 0, errNPE("array record length")
				}
				regs[in.Dst] = Value(uint32(vm.RT.ArrayLen(ref)))
			case ir.OpResolve:
				// Retrieve the receiver-pool facade for the record's
				// runtime type and bind it (§3.2, "Resolving types").
				ref := offheap.PageRef(regs[in.A])
				if ref == 0 {
					return 0, errNPE("resolve on null record")
				}
				tw := vm.RT.TypeID(ref)
				pe := t.pools[int(tw)]
				if pe == nil {
					return 0, fmt.Errorf("vm: no receiver pool for type id %d", tw)
				}
				hp.SetLong(heap.Addr(pe.recv), vm.pageRefField.Offset, int64(ref))
				t.poolHits++
				regs[in.Dst] = pe.recv
			case ir.OpPoolGet:
				pe := t.pools[in.Cls.ID]
				if pe == nil {
					return 0, fmt.Errorf("vm: no parameter pool for %s", in.Cls.Name)
				}
				t.poolHits++
				regs[in.Dst] = pe.params[int(in.Imm)]
			case ir.OpRecvPool:
				// Devirtualized resolve (§3.6 optimization): the callee is
				// statically known, so the receiver facade comes from the
				// static type's pool without reading the record type tag.
				ref := offheap.PageRef(regs[in.A])
				if ref == 0 {
					return 0, errNPE("devirtualized call on null record")
				}
				pe := t.pools[in.Cls.ID]
				if pe == nil {
					return 0, fmt.Errorf("vm: no receiver pool for %s", in.Cls.Name)
				}
				hp.SetLong(heap.Addr(pe.recv), vm.pageRefField.Offset, int64(ref))
				t.poolHits++
				regs[in.Dst] = pe.recv

			default:
				if h := opHandlers[in.Op]; h != nil {
					if err := h(t, regs, in); err != nil {
						return 0, err
					}
					continue
				}
				return 0, fmt.Errorf("vm: %s: unimplemented op %s", fn.Name, in.Op)
			}
		}
		return 0, fmt.Errorf("vm: %s: fell off block b%d", fn.Name, bi)
	}
}

// instanceOf implements the heap-object subtype test.
func (t *Thread) instanceOf(a heap.Addr, target *lang.Type) bool {
	if a == 0 {
		return false
	}
	hp := t.vm.Heap
	h := t.vm.Prog.H
	if hp.IsArray(a) {
		if target.Kind == lang.TArray {
			return hp.ArrayElemOf(a).Equals(target.Elem)
		}
		return target.Kind == lang.TClass && target.Name == "Object"
	}
	cls := hp.ClassOf(a)
	switch target.Kind {
	case lang.TClass:
		tc := h.Class(target.Name)
		return tc != nil && cls.IsSubclassOf(tc)
	case lang.TIface:
		ti := h.Iface(target.Name)
		return ti != nil && cls.Implements(ti)
	}
	return false
}

// recInstanceOf implements the page-record type test: scalar targets check
// the record's facade class against the instruction's facade class (case
// 7.1); array targets compare array type IDs (case 7.2).
func (t *Thread) recInstanceOf(ref offheap.PageRef, in *ir.Instr) bool {
	if ref == 0 {
		return false
	}
	rt := t.vm.RT
	if rt.IsArrayRecord(ref) {
		if in.Type == nil || in.Type.Kind != lang.TArray {
			return in.Cls != nil && in.Cls.Name == "Facade"
		}
		return rt.ArrayTypeOf(ref) == rt.ArrayTypeIndex(in.Type.Elem)
	}
	if in.Cls == nil {
		return false
	}
	cls := t.vm.Prog.H.ClassList[rt.ClassID(ref)]
	return cls.IsSubclassOf(in.Cls)
}

func boolVal(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Field and element access helpers shared by both halves.

func loadField(hp *heap.Heap, obj heap.Addr, f *lang.Field) Value {
	switch f.Type.Kind {
	case lang.TBool, lang.TByte:
		return Value(int64(hp.GetByte(obj, f.Offset)))
	case lang.TInt:
		return Value(int64(hp.GetInt(obj, f.Offset)))
	case lang.TLong:
		return Value(hp.GetLong(obj, f.Offset))
	case lang.TDouble:
		return math.Float64bits(hp.GetDouble(obj, f.Offset))
	default:
		return Value(hp.GetRef(obj, f.Offset))
	}
}

func storeField(hp *heap.Heap, tc *heap.ThreadCtx, obj heap.Addr, f *lang.Field, v Value) {
	switch f.Type.Kind {
	case lang.TBool, lang.TByte:
		hp.SetByte(obj, f.Offset, int8(v))
	case lang.TInt:
		hp.SetInt(obj, f.Offset, int32(v))
	case lang.TLong:
		hp.SetLong(obj, f.Offset, int64(v))
	case lang.TDouble:
		hp.SetDouble(obj, f.Offset, math.Float64frombits(v))
	default:
		hp.SetRefTC(tc, obj, f.Offset, heap.Addr(v))
	}
}

func loadElem(hp *heap.Heap, arr heap.Addr, elem *lang.Type, i int) Value {
	off := i * elem.FieldSize()
	switch elem.Kind {
	case lang.TBool, lang.TByte:
		return Value(int64(hp.GetByte(arr, off)))
	case lang.TInt:
		return Value(int64(hp.GetInt(arr, off)))
	case lang.TLong:
		return Value(hp.GetLong(arr, off))
	case lang.TDouble:
		return math.Float64bits(hp.GetDouble(arr, off))
	default:
		return Value(hp.GetRef(arr, off))
	}
}

func storeElem(hp *heap.Heap, tc *heap.ThreadCtx, arr heap.Addr, elem *lang.Type, i int, v Value) {
	off := i * elem.FieldSize()
	switch elem.Kind {
	case lang.TBool, lang.TByte:
		hp.SetByte(arr, off, int8(v))
	case lang.TInt:
		hp.SetInt(arr, off, int32(v))
	case lang.TLong:
		hp.SetLong(arr, off, int64(v))
	case lang.TDouble:
		hp.SetDouble(arr, off, math.Float64frombits(v))
	default:
		hp.SetRefTC(tc, arr, off, heap.Addr(v))
	}
}

func loadRecField(rt *offheap.Runtime, ref offheap.PageRef, f *lang.Field) Value {
	switch f.Type.Kind {
	case lang.TBool, lang.TByte:
		return Value(int64(rt.GetByte(ref, f.Offset)))
	case lang.TInt:
		return Value(int64(rt.GetInt(ref, f.Offset)))
	case lang.TLong:
		return Value(rt.GetLong(ref, f.Offset))
	case lang.TDouble:
		return math.Float64bits(rt.GetDouble(ref, f.Offset))
	default:
		return Value(rt.GetRef(ref, f.Offset))
	}
}

func storeRecField(rt *offheap.Runtime, ref offheap.PageRef, f *lang.Field, v Value) {
	switch f.Type.Kind {
	case lang.TBool, lang.TByte:
		rt.SetByte(ref, f.Offset, int8(v))
	case lang.TInt:
		rt.SetInt(ref, f.Offset, int32(v))
	case lang.TLong:
		rt.SetLong(ref, f.Offset, int64(v))
	case lang.TDouble:
		rt.SetDouble(ref, f.Offset, math.Float64frombits(v))
	default:
		rt.SetRef(ref, f.Offset, offheap.PageRef(v))
	}
}

func loadRecElem(rt *offheap.Runtime, ref offheap.PageRef, elem *lang.Type, i int) Value {
	off := i * elem.FieldSize()
	switch elem.Kind {
	case lang.TBool, lang.TByte:
		return Value(int64(rt.GetByte(ref, off)))
	case lang.TInt:
		return Value(int64(rt.GetInt(ref, off)))
	case lang.TLong:
		return Value(rt.GetLong(ref, off))
	case lang.TDouble:
		return math.Float64bits(rt.GetDouble(ref, off))
	default:
		return Value(rt.GetRef(ref, off))
	}
}

func storeRecElem(rt *offheap.Runtime, ref offheap.PageRef, elem *lang.Type, i int, v Value) {
	off := i * elem.FieldSize()
	switch elem.Kind {
	case lang.TBool, lang.TByte:
		rt.SetByte(ref, off, int8(v))
	case lang.TInt:
		rt.SetInt(ref, off, int32(v))
	case lang.TLong:
		rt.SetLong(ref, off, int64(v))
	case lang.TDouble:
		rt.SetDouble(ref, off, math.Float64frombits(v))
	default:
		rt.SetRef(ref, off, offheap.PageRef(v))
	}
}

// ---------------------------------------------------------------------------
// Arithmetic

func evalBin(in *ir.Instr, a, b Value) (Value, error) {
	switch in.NumKind {
	case ir.KInt, ir.KByte, ir.KBool:
		x, y := int32(a), int32(b)
		switch in.Sub {
		case ir.BinAdd:
			return Value(uint32(x + y)), nil
		case ir.BinSub:
			return Value(uint32(x - y)), nil
		case ir.BinMul:
			return Value(uint32(x * y)), nil
		case ir.BinDiv:
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: / by zero")
			}
			return Value(uint32(x / y)), nil
		case ir.BinRem:
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: %% by zero")
			}
			return Value(uint32(x % y)), nil
		case ir.BinAnd:
			return Value(uint32(x & y)), nil
		case ir.BinOr:
			return Value(uint32(x | y)), nil
		case ir.BinXor:
			return Value(uint32(x ^ y)), nil
		case ir.BinShl:
			return Value(uint32(x << (uint32(y) & 31))), nil
		case ir.BinShr:
			return Value(uint32(x >> (uint32(y) & 31))), nil
		case ir.BinLt:
			return boolVal(x < y), nil
		case ir.BinLe:
			return boolVal(x <= y), nil
		case ir.BinGt:
			return boolVal(x > y), nil
		case ir.BinGe:
			return boolVal(x >= y), nil
		case ir.BinEq:
			return boolVal(x == y), nil
		case ir.BinNe:
			return boolVal(x != y), nil
		}
	case ir.KLong:
		x, y := int64(a), int64(b)
		switch in.Sub {
		case ir.BinAdd:
			return Value(x + y), nil
		case ir.BinSub:
			return Value(x - y), nil
		case ir.BinMul:
			return Value(x * y), nil
		case ir.BinDiv:
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: / by zero")
			}
			return Value(x / y), nil
		case ir.BinRem:
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: %% by zero")
			}
			return Value(x % y), nil
		case ir.BinAnd:
			return Value(x & y), nil
		case ir.BinOr:
			return Value(x | y), nil
		case ir.BinXor:
			return Value(x ^ y), nil
		case ir.BinShl:
			return Value(x << (uint64(y) & 63)), nil
		case ir.BinShr:
			return Value(x >> (uint64(y) & 63)), nil
		case ir.BinLt:
			return boolVal(x < y), nil
		case ir.BinLe:
			return boolVal(x <= y), nil
		case ir.BinGt:
			return boolVal(x > y), nil
		case ir.BinGe:
			return boolVal(x >= y), nil
		case ir.BinEq:
			return boolVal(x == y), nil
		case ir.BinNe:
			return boolVal(x != y), nil
		}
	case ir.KDouble:
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		switch in.Sub {
		case ir.BinAdd:
			return math.Float64bits(x + y), nil
		case ir.BinSub:
			return math.Float64bits(x - y), nil
		case ir.BinMul:
			return math.Float64bits(x * y), nil
		case ir.BinDiv:
			return math.Float64bits(x / y), nil
		case ir.BinLt:
			return boolVal(x < y), nil
		case ir.BinLe:
			return boolVal(x <= y), nil
		case ir.BinGt:
			return boolVal(x > y), nil
		case ir.BinGe:
			return boolVal(x >= y), nil
		case ir.BinEq:
			return boolVal(x == y), nil
		case ir.BinNe:
			return boolVal(x != y), nil
		}
	case ir.KRef:
		switch in.Sub {
		case ir.BinEq:
			return boolVal(a == b), nil
		case ir.BinNe:
			return boolVal(a != b), nil
		}
	}
	return 0, fmt.Errorf("vm: bad binary op %s on %s", in.Sub, in.NumKind)
}

func evalUn(in *ir.Instr, a Value) Value {
	switch in.Sub {
	case ir.UnNeg:
		switch in.NumKind {
		case ir.KInt, ir.KByte:
			return Value(uint32(-int32(a)))
		case ir.KLong:
			return Value(-int64(a))
		case ir.KDouble:
			return math.Float64bits(-math.Float64frombits(a))
		}
	case ir.UnNot:
		return boolVal(a == 0)
	}
	return 0
}

func evalConv(from, to ir.NumKind, a Value) Value {
	// Normalize the source to int64 or float64.
	var i int64
	var f float64
	isF := false
	switch from {
	case ir.KByte:
		i = int64(int8(a))
	case ir.KInt:
		i = int64(int32(a))
	case ir.KLong:
		i = int64(a)
	case ir.KDouble:
		f = math.Float64frombits(a)
		isF = true
	}
	switch to {
	case ir.KByte:
		if isF {
			return Value(uint64(int8(clampToInt32(f))))
		}
		return Value(uint64(int8(i)))
	case ir.KInt:
		if isF {
			return Value(uint32(clampToInt32(f)))
		}
		return Value(uint32(int32(i)))
	case ir.KLong:
		if isF {
			return Value(clampToInt64(f))
		}
		return Value(i)
	case ir.KDouble:
		if isF {
			return a
		}
		return math.Float64bits(float64(i))
	}
	return a
}

// clampToInt64 converts a double to long with Java semantics: NaN -> 0,
// out-of-range values saturate.
func clampToInt64(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// clampToInt32 converts a double to int with Java semantics.
func clampToInt32(f float64) int32 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	}
	return int32(f)
}
