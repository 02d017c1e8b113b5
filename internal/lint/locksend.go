package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Locksend flags blocking work performed while holding a mutex whose
// declaration is annotated //terids:nosend — the PR 7 stall class, where a
// channel send under Engine.subMu deadlocked submission against a full
// pipeline. While such a mutex is held, the analyzer rejects channel sends
// and receives (outside a select with a default clause), calls to known
// blocking standard-library functions (time.Sleep, os.Remove and friends,
// os.File I/O and fsync), invocations of func-typed values (callbacks whose
// body the holder cannot see), and calls to same-package functions that
// transitively do any of the above or are annotated //terids:blocks.
//
// Lock regions are tracked linearly per function: branches are analyzed
// against a copy of the held set, `defer mu.Unlock()` keeps the mutex held
// to the end of the function, and goroutine bodies and closures are excluded
// (they run outside the region unless invoked, and a direct invocation of a
// func value is itself flagged). Same-package summaries include deferred
// calls — a helper's defers run at its own return, inside the caller's lock
// region — but not dynamic calls, which are only flagged when they appear
// directly in a lock region. sync.Cond.Wait and sync.WaitGroup.Wait are
// deliberately permitted: the engine parks on both under subMu by design
// (checkpoint drains, state-swap quiescence), with the condition's waker not
// requiring the lock.
var Locksend = &Analyzer{
	Name: "locksend",
	Doc:  "no channel sends, blocking syscalls, or callbacks while holding a //terids:nosend mutex",
	Run:  runLocksend,
}

// lsBad describes the first blocking operation found in a function, for
// transitive reporting.
type lsBad struct {
	pos  token.Pos
	what string
}

type locksendPass struct {
	pass *Pass
	// annotated holds the field/var objects declared with //terids:nosend.
	annotated map[types.Object]bool
	// decls maps same-package function objects to their declarations.
	decls map[*types.Func]*ast.FuncDecl
	// summary records which same-package functions may block; nil value
	// means analyzed and clean.
	summary map[*types.Func]*lsBad
}

func runLocksend(pass *Pass) error {
	ls := &locksendPass{
		pass:      pass,
		annotated: map[types.Object]bool{},
		decls:     map[*types.Func]*ast.FuncDecl{},
		summary:   map[*types.Func]*lsBad{},
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if hasDirective(n.Doc, "nosend") || hasDirective(n.Comment, "nosend") {
					for _, name := range n.Names {
						if obj := pass.Info.Defs[name]; obj != nil && isMutexType(obj.Type()) {
							ls.annotated[obj] = true
						}
					}
				}
			case *ast.ValueSpec:
				if hasDirective(n.Doc, "nosend") || hasDirective(n.Comment, "nosend") {
					for _, name := range n.Names {
						if obj := pass.Info.Defs[name]; obj != nil && isMutexType(obj.Type()) {
							ls.annotated[obj] = true
						}
					}
				}
			case *ast.FuncDecl:
				if fn, ok := pass.Info.Defs[n.Name].(*types.Func); ok {
					ls.decls[fn] = n
				}
			}
			return true
		})
	}
	if len(ls.annotated) == 0 {
		return nil
	}
	ls.summarize()
	for _, decl := range ls.decls {
		if decl.Body != nil {
			ls.region(decl.Body.List, map[types.Object]bool{})
		}
	}
	return nil
}

// summarize computes the may-block summary for every same-package function
// by fixpoint over the static call graph.
func (ls *locksendPass) summarize() {
	// Direct facts first: own annotation, sends, blocking std calls.
	for fn, decl := range ls.decls {
		if funcHasDirective(decl, "blocks") {
			ls.summary[fn] = &lsBad{pos: decl.Pos(), what: "annotated //terids:blocks"}
			continue
		}
		ls.summary[fn] = ls.directBad(decl)
	}
	// Propagate through same-package static calls until stable.
	for changed := true; changed; {
		changed = false
		for fn, decl := range ls.decls {
			if ls.summary[fn] != nil || decl.Body == nil {
				continue
			}
			ls.eachCall(decl.Body, func(call *ast.CallExpr) {
				if ls.summary[fn] != nil {
					return
				}
				callee := calleeFunc(ls.pass.Info, call)
				if callee == nil {
					return
				}
				if bad := ls.summary[callee.Origin()]; bad != nil {
					ls.summary[fn] = &lsBad{pos: call.Pos(), what: "calls " + callee.Name() + ", which " + bad.what}
					changed = true
				}
			})
		}
	}
}

// directBad scans a function body for operations that block by themselves:
// channel sends/receives and blocking standard-library calls. Deferred
// calls count — a helper's defers run at its own return, still inside the
// caller's lock region — but goroutine and closure bodies do not.
func (ls *locksendPass) directBad(decl *ast.FuncDecl) *lsBad {
	if decl.Body == nil {
		return nil
	}
	var bad *lsBad
	ls.eachOp(decl.Body, func(pos token.Pos, what string) {
		if bad == nil {
			bad = &lsBad{pos: pos, what: what}
		}
	})
	return bad
}

// eachOp visits every directly blocking operation in n, skipping goroutine
// bodies and closures.
func (ls *locksendPass) eachOp(n ast.Node, report func(token.Pos, string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				return true
			}
			// A select with a default clause never blocks; its comm
			// clauses are non-blocking attempts. Bodies still apply.
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ls.eachOp(s, report)
				}
			}
			return false
		case *ast.SendStmt:
			report(n.Arrow, "sends on a channel")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.OpPos, "receives from a channel")
			}
		case *ast.CallExpr:
			if fn := calleeFunc(ls.pass.Info, n); fn != nil {
				if what := blockingStd(fn); what != "" {
					report(n.Pos(), "calls "+what)
				}
			}
		}
		return true
	})
}

// eachCall visits every static call in n outside goroutine bodies and
// closures.
func (ls *locksendPass) eachCall(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

// region walks a statement list tracking which annotated mutexes are held.
// Branch bodies are analyzed against copies of the held set; fall-through
// keeps the parent state, which models the early-unlock-and-return idiom.
func (ls *locksendPass) region(stmts []ast.Stmt, held map[types.Object]bool) {
	for _, s := range stmts {
		ls.regionStmt(s, held)
	}
}

func (ls *locksendPass) regionStmt(s ast.Stmt, held map[types.Object]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if obj, op := ls.lockOp(call); obj != nil {
				switch op {
				case "Lock", "RLock":
					held[obj] = true
				case "Unlock", "RUnlock":
					delete(held, obj)
				}
				return
			}
		}
		ls.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the region open to the end of the
		// function; other deferred calls run at an indeterminate lock
		// state and are not checked here (summaries cover helpers).
		return
	case *ast.GoStmt:
		return
	case *ast.SendStmt:
		ls.reportHeld(held, s.Arrow, "channel send")
		ls.checkExpr(s.Chan, held)
		ls.checkExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			ls.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.checkExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ls.regionStmt(s.Init, held)
		}
		ls.checkExpr(s.Cond, held)
		ls.region(s.Body.List, copyHeld(held))
		if s.Else != nil {
			ls.regionStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.regionStmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.checkExpr(s.Cond, held)
		}
		inner := copyHeld(held)
		ls.region(s.Body.List, inner)
		if s.Post != nil {
			ls.regionStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		ls.checkExpr(s.X, held)
		ls.region(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.regionStmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.checkExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			ls.region(c.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			ls.region(c.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		def := selectHasDefault(s)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if !def && cc.Comm != nil {
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					ls.reportHeld(held, comm.Arrow, "channel send (select)")
				default:
					// Receive clauses block the select too.
					ls.reportHeld(held, cc.Comm.Pos(), "channel receive (select)")
				}
			}
			ls.region(cc.Body, copyHeld(held))
		}
	case *ast.BlockStmt:
		ls.region(s.List, held)
	case *ast.LabeledStmt:
		ls.regionStmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ls.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		ls.checkExpr(s.X, held)
	}
}

// checkExpr flags blocking operations inside an expression evaluated while
// held is non-empty. Closure bodies are skipped: defining a closure under a
// lock is fine, invoking it is not (the invocation is a dynamic call and is
// flagged as such).
func (ls *locksendPass) checkExpr(e ast.Expr, held map[types.Object]bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ls.reportHeld(held, n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			ls.checkCall(n, held)
		}
		return true
	})
}

func (ls *locksendPass) checkCall(call *ast.CallExpr, held map[types.Object]bool) {
	info := ls.pass.Info
	if isConversion(info, call) || isBuiltinCall(info, call) {
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		// A call through a func value: the callback's body is invisible
		// to the lock holder, so it must not run under the lock.
		if _, ok := call.Fun.(*ast.FuncLit); ok {
			return
		}
		ls.reportHeld(held, call.Pos(), "callback invocation (dynamic call through a func value)")
		return
	}
	if what := blockingStd(fn); what != "" {
		ls.reportHeld(held, call.Pos(), what)
		return
	}
	if bad := ls.summary[fn.Origin()]; bad != nil {
		ls.reportHeld(held, call.Pos(), "call to "+fn.Name()+", which "+bad.what)
	}
}

func (ls *locksendPass) reportHeld(held map[types.Object]bool, pos token.Pos, what string) {
	for obj := range held {
		ls.pass.Reportf(pos, "%s while holding %s (//terids:nosend)", what, obj.Name())
		return
	}
}

// lockOp recognizes mu.Lock()/Unlock()/RLock()/RUnlock() on an annotated
// mutex and returns the mutex object and operation name.
func (ls *locksendPass) lockOp(call *ast.CallExpr) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, ""
	}
	fn, _ := ls.pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	var obj types.Object
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		obj = ls.pass.Info.Uses[x.Sel]
	case *ast.Ident:
		obj = ls.pass.Info.Uses[x]
		if obj == nil {
			obj = ls.pass.Info.Defs[x]
		}
	default:
		return nil, ""
	}
	if obj == nil || !ls.annotated[obj] {
		return nil, ""
	}
	return obj, op
}

func copyHeld(held map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// blockingStd names the blocking standard-library operations a lock region
// must not perform: filesystem mutation and I/O, fsync, and sleeping.
func blockingStd(fn *types.Func) string {
	for _, name := range [...]string{"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "Create", "Open", "OpenFile", "ReadFile", "WriteFile", "Truncate"} {
		if stdFunc(fn, "os", name) {
			return "blocking syscall os." + name
		}
	}
	if stdFunc(fn, "time", "Sleep") {
		return "time.Sleep"
	}
	for _, name := range [...]string{"Sync", "Close", "Write", "WriteString", "WriteAt", "Read", "ReadAt", "Seek", "Truncate"} {
		if methodOn(fn, "os", "File", name) {
			return "blocking file I/O (*os.File)." + name
		}
	}
	return ""
}
