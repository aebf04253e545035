package netserve

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLockedCallersHoldTheLock keeps the one-lock rule by naming: a
// function whose name ends in Locked runs with its receiver's mu held,
// so every call to one must come from a *Locked function, after the
// caller's own ns.mu.Lock() or c.mu.Lock(), or from a function every
// in-package call of which holds the lock (so stage → flushStaged →
// shedLocked passes). The table runs the walk over the package's own
// non-test files and over small sources that must pass or fail it.
func TestLockedCallersHoldTheLock(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var pkg []string
	for _, path := range paths {
		if !strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			pkg = append(pkg, string(src))
		}
	}
	if len(pkg) == 0 {
		t.Fatal("no package files found")
	}
	for _, tc := range []struct {
		name string
		srcs []string // one source file each
		want []string // the unlocked callers, sorted
	}{
		{name: "netserve", srcs: pkg},
		{name: "locker and chain", srcs: []string{`package p
func (ns *NetServer) step() {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.stage()
}
func (ns *NetServer) stage()             { ns.flushStaged() }
func (ns *NetServer) flushStaged()       { ns.shedLocked() }
func (ns *NetServer) shedLocked()        { ns.teardownLocked() }
func (ns *NetServer) teardownLocked()    {}
func (c *Coordinator) Tick()             { c.mu.Lock(); c.bumpLocked(); c.mu.Unlock() }
func (c *Coordinator) bumpLocked()       {}
`}},
		{name: "unlocked caller", srcs: []string{`package p
func (ns *NetServer) Kick()         { ns.shedLocked() }
func (ns *NetServer) shedLocked()   {}
`}, want: []string{"Kick"}},
		{name: "one caller of two unlocked", srcs: []string{`package p
func (ns *NetServer) step()         { ns.mu.Lock(); ns.flush(); ns.mu.Unlock() }
func (ns *NetServer) Close()        { ns.flush() }
func (ns *NetServer) flush()        { ns.shedLocked() }
func (ns *NetServer) shedLocked()   {}
`}, want: []string{"flush"}},
		{name: "recursion holds nothing", srcs: []string{`package p
func (ns *NetServer) a()            { ns.b(); ns.shedLocked() }
func (ns *NetServer) b()            { ns.a() }
func (ns *NetServer) shedLocked()   {}
`}, want: []string{"a"}},
		{name: "callback run under the lock", srcs: []string{`package p
func (ns *NetServer) read()             { ns.vcr(func() { ns.pauseLocked() }) }
func (ns *NetServer) vcr(verb func())   { ns.mu.Lock(); defer ns.mu.Unlock(); verb() }
func (ns *NetServer) pauseLocked()      {}
`}},
		{name: "callback run without the lock", srcs: []string{`package p
func (ns *NetServer) read() {
	ns.mu.Lock()
	ns.mu.Unlock()
	time.AfterFunc(0, func() { ns.pauseLocked() })
}
func (ns *NetServer) pauseLocked()      {}
`}, want: []string{"AfterFunc"}},
		{name: "early unlock and return", srcs: []string{`package p
func (ns *NetServer) SetView(stale bool) {
	ns.mu.Lock()
	if stale {
		ns.mu.Unlock()
		return
	}
	ns.beginDrainLocked()
	ns.mu.Unlock()
}
func (ns *NetServer) beginDrainLocked() {}
`}},
		{name: "call after the unlock", srcs: []string{`package p
func (ns *NetServer) Drop()             { ns.mu.Lock(); ns.mu.Unlock(); ns.teardownLocked() }
func (ns *NetServer) teardownLocked()   {}
`}, want: []string{"Drop"}},
		{name: "goroutine started under the lock", srcs: []string{`package p
func (ns *NetServer) step() {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	go func() { ns.shedLocked() }()
}
func (ns *NetServer) shedLocked()       {}
`}, want: []string{"step"}},
		{name: "another lock is not mu", srcs: []string{`package p
func (ns *NetServer) Drain()        { ns.other.Lock(); ns.drainLocked() }
func (ns *NetServer) drainLocked()  {}
`}, want: []string{"Drain"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []*ast.File
			for i, src := range tc.srcs {
				file, err := parser.ParseFile(fset, fmt.Sprintf("%d.go", i), src, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, file)
			}
			if got := unlockedCallers(files); !slices.Equal(got, tc.want) {
				t.Errorf("functions calling a *Locked function without ns.mu or c.mu: %v, want %v", got, tc.want)
			}
		})
	}
}

// site is one call of a function: the function it is written in (for a
// closure passed to a call, the function it is passed to), whether the
// caller's mu is held there, and whether it is in such a closure.
type site struct {
	caller           string
	locked, callback bool
}

// unlockedCallers returns, sorted, the functions of files whose calls to
// a function named *Locked may run without their receiver's mu. A call
// holds the lock when it follows an ns.mu.Lock() or c.mu.Lock() in its
// function's source with no Unlock between (a deferred Unlock releases
// nothing; a goroutine holds nothing), when its function is a *Locked
// one, when it is in a closure passed to a function that locks mu, or
// when every in-package call of its function holds the lock. Calls are
// matched by name, so same-named methods of different types count as
// one function, and source order stands in for control flow.
func unlockedCallers(files []*ast.File) []string {
	sites := map[string][]site{} // callee → its call sites
	locks := map[string]bool{}   // the functions that lock mu somewhere
	holds := map[string]bool{}   // the functions always run under mu
	declared := map[string]bool{}
	var walk func(n ast.Node, caller string, locked *bool, callback bool)
	walk = func(n ast.Node, caller string, locked *bool, callback bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return !muCall(n.Call, "Unlock")
			case *ast.GoStmt:
				walk(n.Call, caller, new(bool), callback)
				return false
			case *ast.IfStmt:
				// A branch that ends in return, break or continue leaves
				// the code after the if with the lock as it found it.
				if leaves(n.Body) {
					for _, part := range []ast.Node{n.Init, n.Cond} {
						if part != nil {
							walk(part, caller, locked, callback)
						}
					}
					held := *locked
					walk(n.Body, caller, locked, callback)
					*locked = held
					if n.Else != nil {
						walk(n.Else, caller, locked, callback)
					}
					return false
				}
			case *ast.CallExpr:
				if muCall(n, "Lock") {
					*locked, locks[caller] = true, true
				} else if muCall(n, "Unlock") {
					*locked = false
				}
				callee := calleeName(n)
				if callee != "" {
					sites[callee] = append(sites[callee], site{caller, *locked, callback})
				}
				walk(n.Fun, caller, locked, callback)
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok && callee != "" {
						walk(lit.Body, callee, new(bool), true)
					} else {
						walk(arg, caller, locked, callback)
					}
				}
				return false
			}
			return true
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			declared[name] = true
			holds[name] = strings.HasSuffix(name, "Locked")
			walk(fn.Body, name, new(bool), false)
		}
	}
	safe := func(s site) bool { return s.locked || holds[s.caller] || s.callback && locks[s.caller] }
	// A function of files is run under mu if every call of it is: grow
	// the set until it stops growing.
	for grew := true; grew; {
		grew = false
		for callee, calls := range sites {
			if declared[callee] && !holds[callee] && !slices.ContainsFunc(calls, func(s site) bool { return !safe(s) }) {
				holds[callee], grew = true, true
			}
		}
	}
	var bad []string
	for callee, calls := range sites {
		if !strings.HasSuffix(callee, "Locked") {
			continue
		}
		for _, s := range calls {
			if !safe(s) && !slices.Contains(bad, s.caller) {
				bad = append(bad, s.caller)
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// leaves reports whether a block ends by leaving it: return, break,
// continue or goto.
func leaves(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

// muCall reports whether call is ns.mu.<method>() or c.mu.<method>().
func muCall(call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != "mu" {
		return false
	}
	recv, ok := mu.X.(*ast.Ident)
	return ok && (recv.Name == "ns" || recv.Name == "c")
}

// calleeName is the name a call calls: f for f(…) and x.f(…).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
