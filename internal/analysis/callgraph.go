package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared static-analysis substrate the concurrency
// passes (lockorder, goroleak) and their engine tests build on:
//
//   - CallGraph: the module's synchronous static call graph. Edges are
//     resolved exactly like the hot-path traversal resolves callees —
//     static in-module calls only; interface methods, func values and
//     out-of-module callees are graph exits. `go` statements are
//     deliberately NOT edges: a goroutine start is asynchronous control
//     flow, modeled by the goroleak pass instead.
//   - LockInfo: the module's lock universe (every sync.Mutex/RWMutex
//     field or package-level var, with stable display names), the
//     sync.Cond -> guarded-mutex association, and per-function lock
//     summaries (which locks a function acquires, directly or through
//     any chain of static calls, and whether it can block) merged to a
//     fixed point across package boundaries.
//   - Graph: a tiny string-keyed digraph with cycle detection, used for
//     the lock-acquisition order graph.

// CallSite is one static call edge.
type CallSite struct {
	Caller *types.Func
	Callee *types.Func
	Pos    token.Pos
}

// CallGraph is the synchronous static call graph over the module,
// seeded from a package set and closed over everything reachable
// through static in-module calls (like the hot-path traversal).
type CallGraph struct {
	prog *Program
	// Outs maps a function to its static call sites, in source order.
	Outs map[*types.Func][]CallSite
}

// NewCallGraph builds the call graph seeded from every function
// declared in pkgs, following static in-module calls transitively so
// cross-package chains (session -> core -> obs) are complete even when
// pkgs is a subset of the module.
func NewCallGraph(prog *Program, pkgs []*Package) *CallGraph {
	g := &CallGraph{prog: prog, Outs: make(map[*types.Func][]CallSite)}
	var queue []*types.Func
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					queue = append(queue, fn)
				}
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if _, done := g.Outs[fn]; done {
			continue
		}
		g.Outs[fn] = nil // visited marker, even for leaf functions
		d := prog.declOf(fn)
		if d == nil || d.decl.Body == nil {
			continue
		}
		var sites []CallSite
		inspectSync(d.decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := calleeOf(d.pkg.Info, call)
			if callee == nil || prog.declOf(callee) == nil {
				return // dynamic, builtin, or out-of-module
			}
			sites = append(sites, CallSite{Caller: fn, Callee: callee, Pos: call.Pos()})
			queue = append(queue, callee)
		})
		g.Outs[fn] = sites
		// Functions referenced only from goroutine bodies (`go f()`, or
		// calls inside `go func(){...}`) get nodes and summaries of
		// their own, without a synchronous edge from the spawner — the
		// goroleak pass walks into them from the go statement.
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeOf(d.pkg.Info, call); callee != nil && prog.declOf(callee) != nil {
					if _, done := g.Outs[callee]; !done {
						queue = append(queue, callee)
					}
				}
			}
			return true
		})
	}
	return g
}

// Reachable returns the set of functions reachable from the roots
// through static calls, including the roots themselves.
func (g *CallGraph) Reachable(roots ...*types.Func) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		for _, site := range g.Outs[fn] {
			visit(site.Callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// inspectSync walks a body the way synchronous control flow runs it:
// function literals are entered (they may run inline via defer, Do,
// or a direct call), but the bodies of `go` statements are not — work
// started there executes on another goroutine and must not contribute
// to the spawner's summary.
func inspectSync(body ast.Node, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			// The call's arguments are evaluated synchronously; the
			// invoked body is not.
			for _, a := range g.Call.Args {
				inspectSync(a, f)
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				_ = lit // skipped: runs on the new goroutine
			} else {
				inspectSync(g.Call.Fun, f)
			}
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

// --- Lock universe and summaries ----------------------------------------

// BlockKind classifies a blocking operation found in a function body.
type BlockKind int

const (
	BlockCondWait BlockKind = iota // sync.Cond.Wait
	BlockCondWake                  // sync.Cond.Broadcast / Signal
	BlockChanSend                  // blocking channel send
	BlockChanRecv                  // blocking channel receive / range
	BlockSelect                    // select without a default case
	BlockNetIO                     // call into package net (conn I/O, dial, accept)
	BlockCall                      // call to a function that blocks transitively
)

func (k BlockKind) String() string {
	switch k {
	case BlockCondWait:
		return "Cond.Wait"
	case BlockCondWake:
		return "Cond.Broadcast/Signal"
	case BlockChanSend:
		return "channel send"
	case BlockChanRecv:
		return "channel receive"
	case BlockSelect:
		return "blocking select"
	case BlockNetIO:
		return "net I/O"
	case BlockCall:
		return "blocking call"
	}
	return "blocking op"
}

// BlockOp is one potentially blocking operation in a function body.
type BlockOp struct {
	Kind BlockKind
	Pos  token.Pos
	// Cond is the sync.Cond variable for BlockCondWait/BlockCondWake.
	Cond *types.Var
	// Via names the callee chain for BlockCall diagnostics.
	Via string
}

// LockSummary is the merged, transitive view of one function: every
// lock it can acquire through any chain of static calls, and whether
// (and where) it can block.
type LockSummary struct {
	Fn *types.Func
	// Acquires maps each lock the function may take (transitively) to
	// the position of one acquisition site and the call chain reaching
	// it ("" when acquired directly).
	Acquires map[*types.Var]LockAcq
	// Blocks is non-nil when the function can block (transitively); it
	// describes one witness operation.
	Blocks *BlockOp
}

// LockAcq is one witnessed lock acquisition in a summary.
type LockAcq struct {
	Pos token.Pos
	Via string // call chain from the summarized function; "" = direct
}

// LockInfo is the module's lock universe plus per-function summaries.
type LockInfo struct {
	prog  *Program
	graph *CallGraph
	// names maps every known mutex object (struct field or package
	// var of type sync.Mutex / sync.RWMutex) to its display name.
	names map[*types.Var]string
	// CondLock maps a sync.Cond field/var to the mutex it guards,
	// resolved from sync.NewCond(&x) initialization sites.
	CondLock map[*types.Var]*types.Var
	// summaries holds the post-fixed-point function summaries.
	summaries map[*types.Func]*LockSummary
}

// ComputeLockInfo builds the lock universe and function summaries for
// everything reachable from pkgs. The fixed point merges summaries
// across package boundaries: a root-package function calling into
// internal/obs inherits the obs locks it can reach.
func ComputeLockInfo(prog *Program, g *CallGraph) *LockInfo {
	li := &LockInfo{
		prog:      prog,
		graph:     g,
		names:     make(map[*types.Var]string),
		CondLock:  make(map[*types.Var]*types.Var),
		summaries: make(map[*types.Func]*LockSummary),
	}
	// The lock universe and cond associations come from the whole
	// program, so summaries agree no matter which subset a pass scopes.
	for _, pkg := range prog.Pkgs {
		li.scanTypes(pkg)
	}
	for _, pkg := range prog.Pkgs {
		li.scanConds(pkg)
	}
	li.computeSummaries()
	return li
}

// LockName renders a lock variable for diagnostics: Owner.field for
// struct fields, pkg.var for package-level mutexes, the bare name
// otherwise.
func (li *LockInfo) LockName(v *types.Var) string {
	if v == nil {
		return "<unknown>"
	}
	if n, ok := li.names[v]; ok {
		return n
	}
	return v.Name()
}

// Summary returns the transitive lock summary for fn (nil when fn was
// not reached by the call graph).
func (li *LockInfo) Summary(fn *types.Func) *LockSummary { return li.summaries[fn] }

// scanTypes names every mutex-typed struct field and package-level var.
func (li *LockInfo) scanTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		switch obj := obj.(type) {
		case *types.TypeName:
			if obj.IsAlias() {
				continue // the aliased type names its own fields
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if isMutexType(f.Type()) {
					li.names[f] = obj.Name() + "." + f.Name()
				}
			}
		case *types.Var:
			if isMutexType(obj.Type()) {
				li.names[obj] = pkg.Types.Name() + "." + obj.Name()
			}
		}
	}
}

// scanConds resolves sync.NewCond(&x) sites to (cond object, lock
// object) pairs by looking at the assignment the call feeds.
func (li *LockInfo) scanConds(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					continue
				}
				callee := calleeOf(pkg.Info, call)
				if callee == nil || callee.Name() != "NewCond" || pkgPathOf(callee) != "sync" {
					continue
				}
				un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				lock := varOfExpr(pkg.Info, un.X)
				cond := varOfExpr(pkg.Info, as.Lhs[i])
				if lock != nil && cond != nil {
					li.CondLock[cond] = lock
				}
			}
			return true
		})
	}
}

// computeSummaries walks every call-graph function once for its direct
// facts, then iterates summary merging to a fixed point over the call
// edges (cross-package chains converge because acquisitions only grow).
func (li *LockInfo) computeSummaries() {
	type direct struct {
		acquires map[*types.Var]token.Pos
		block    *BlockOp
	}
	directs := make(map[*types.Func]*direct)
	for fn := range li.graph.Outs {
		d := li.prog.declOf(fn)
		facts := &direct{acquires: make(map[*types.Var]token.Pos)}
		directs[fn] = facts
		if d == nil || d.decl.Body == nil {
			continue
		}
		comms := selectCommOps(d.decl.Body)
		inspectSync(d.decl.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				op, lock := li.classifyCall(d.pkg.Info, n)
				switch op {
				case "lock":
					if lock != nil {
						if _, ok := facts.acquires[lock]; !ok {
							facts.acquires[lock] = n.Pos()
						}
					}
				case "wait":
					if facts.block == nil {
						facts.block = &BlockOp{Kind: BlockCondWait, Pos: n.Pos(), Cond: lock}
					}
				case "netio":
					if facts.block == nil {
						facts.block = &BlockOp{Kind: BlockNetIO, Pos: n.Pos()}
					}
				}
			case *ast.SendStmt:
				if !comms[n] && facts.block == nil {
					facts.block = &BlockOp{Kind: BlockChanSend, Pos: n.Pos()}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !comms[n] && facts.block == nil {
					facts.block = &BlockOp{Kind: BlockChanRecv, Pos: n.Pos()}
				}
			case *ast.SelectStmt:
				if !selectHasDefault(n) && facts.block == nil {
					facts.block = &BlockOp{Kind: BlockSelect, Pos: n.Pos()}
				}
			case *ast.RangeStmt:
				if n.X != nil && facts.block == nil {
					if t := d.pkg.Info.Types[n.X].Type; t != nil {
						if _, ok := t.Underlying().(*types.Chan); ok {
							facts.block = &BlockOp{Kind: BlockChanRecv, Pos: n.Pos()}
						}
					}
				}
			}
		})
	}

	for fn, facts := range directs {
		s := &LockSummary{Fn: fn, Acquires: make(map[*types.Var]LockAcq)}
		for v, pos := range facts.acquires {
			s.Acquires[v] = LockAcq{Pos: pos}
		}
		if facts.block != nil {
			b := *facts.block
			s.Blocks = &b
		}
		li.summaries[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, sites := range li.graph.Outs {
			s := li.summaries[fn]
			for _, site := range sites {
				cs := li.summaries[site.Callee]
				if cs == nil {
					continue
				}
				for v, acq := range cs.Acquires {
					if _, ok := s.Acquires[v]; !ok {
						via := funcName(site.Callee)
						if acq.Via != "" {
							via += " -> " + acq.Via
						}
						s.Acquires[v] = LockAcq{Pos: site.Pos, Via: via}
						changed = true
					}
				}
				if s.Blocks == nil && cs.Blocks != nil {
					via := funcName(site.Callee)
					if cs.Blocks.Via != "" {
						via += " -> " + cs.Blocks.Via
					}
					s.Blocks = &BlockOp{Kind: BlockCall, Pos: site.Pos, Via: via}
					changed = true
				}
			}
		}
	}
}

// classifyCall recognizes the sync/net calls the lock analysis models:
// returns ("lock"|"unlock"|"wait"|"wake"|"netio"|"", lock-or-cond var).
func (li *LockInfo) classifyCall(info *types.Info, call *ast.CallExpr) (string, *types.Var) {
	callee := calleeOf(info, call)
	if callee == nil {
		return "", nil
	}
	switch pkgPathOf(callee) {
	case "sync":
		recv := receiverNamed(callee)
		if recv == nil {
			return "", nil
		}
		switch recv.Obj().Name() {
		case "Mutex", "RWMutex":
			target := lockTargetVar(info, call)
			switch callee.Name() {
			case "Lock", "RLock":
				return "lock", target
			case "Unlock", "RUnlock":
				return "unlock", target
			}
		case "Cond":
			target := lockTargetVar(info, call)
			switch callee.Name() {
			case "Wait":
				return "wait", target
			case "Broadcast", "Signal":
				return "wake", target
			}
		}
	case "net":
		return "netio", nil
	}
	return "", nil
}

// lockTargetVar resolves the receiver of x.mu.Lock() (or promoted
// s.Lock() through an embedded mutex) to the mutex/cond variable.
func lockTargetVar(info *types.Info, call *ast.CallExpr) *types.Var {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if sel, ok := info.Selections[fun]; ok {
		// A promoted method (embedded sync.Mutex) reaches the mutex
		// field through the selection's index path.
		if idx := sel.Index(); len(idx) > 1 {
			if f := fieldByIndex(sel.Recv(), idx[:len(idx)-1]); f != nil && isMutexOrCond(f.Type()) {
				return f
			}
		}
	}
	return varOfExpr(info, fun.X)
}

// varOfExpr resolves an expression denoting a variable (identifier or
// field selection, through parens and a leading &/*) to its object.
func varOfExpr(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = info.Defs[e].(*types.Var)
		}
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return varOfExpr(info, e.X)
		}
	case *ast.StarExpr:
		return varOfExpr(info, e.X)
	}
	return nil
}

// fieldByIndex follows a field index path from a (possibly pointer)
// struct type, as types.Selection.Index defines it.
func fieldByIndex(t types.Type, index []int) *types.Var {
	var f *types.Var
	for _, i := range index {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return nil
		}
		f = st.Field(i)
		t = f.Type()
	}
	return f
}

func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func isMutexOrCond(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if isMutexType(t) {
		return true
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Cond"
}

// --- Order graph --------------------------------------------------------

// GraphEdge is one lock-order edge with a witness position.
type GraphEdge struct {
	From, To string
	Pos      token.Pos
	Why      string // human-readable witness ("Session.mu held at ... acquiring ...")
}

// Graph is a small string-keyed digraph with deterministic cycle
// detection, used for the lock-acquisition order.
type Graph struct {
	edges map[string]map[string]GraphEdge
}

// NewGraph returns an empty digraph.
func NewGraph() *Graph { return &Graph{edges: make(map[string]map[string]GraphEdge)} }

// AddEdge records from -> to, keeping the first witness.
func (g *Graph) AddEdge(e GraphEdge) {
	m := g.edges[e.From]
	if m == nil {
		m = make(map[string]GraphEdge)
		g.edges[e.From] = m
	}
	if _, ok := m[e.To]; !ok {
		m[e.To] = e
	}
}

// Edge returns the recorded witness for from -> to.
func (g *Graph) Edge(from, to string) (GraphEdge, bool) {
	e, ok := g.edges[from][to]
	return e, ok
}

// Cycles returns every elementary cycle's node sequence, canonicalized
// (rotated to start at the lexically smallest node) and deduplicated,
// in deterministic order. Self-loops ("A -> A") are length-1 cycles.
func (g *Graph) Cycles() [][]string {
	nodes := make([]string, 0, len(g.edges))
	for n := range g.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	seen := make(map[string]bool)
	var out [][]string
	var stack []string
	onStack := make(map[string]int)
	var dfs func(n string)
	dfs = func(n string) {
		if depth, ok := onStack[n]; ok {
			cyc := append([]string(nil), stack[depth:]...)
			key := strings.Join(canonicalCycle(cyc), "\x00")
			if !seen[key] {
				seen[key] = true
				out = append(out, canonicalCycle(cyc))
			}
			return
		}
		onStack[n] = len(stack)
		stack = append(stack, n)
		tos := make([]string, 0, len(g.edges[n]))
		for to := range g.edges[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			dfs(to)
		}
		delete(onStack, n)
		stack = stack[:len(stack)-1]
	}
	for _, n := range nodes {
		dfs(n)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// canonicalCycle rotates a cycle to start at its smallest node.
func canonicalCycle(c []string) []string {
	if len(c) == 0 {
		return c
	}
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	out := make([]string, 0, len(c))
	out = append(out, c[min:]...)
	out = append(out, c[:min]...)
	return out
}

// CycleString renders a cycle for diagnostics: "A -> B -> A".
func CycleString(c []string) string {
	return fmt.Sprintf("%s -> %s", strings.Join(c, " -> "), c[0])
}
