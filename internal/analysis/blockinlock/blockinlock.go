// Package blockinlock reports blocking operations performed while a
// sync.Mutex or sync.RWMutex is held. A blocked lock holder stalls
// every other goroutine that needs the lock — on the scheduler
// dispatch and cluster proxy paths that turns one slow syscall or
// channel peer into a fleet-wide convoy.
//
// Blocking operations: time.Sleep, sync.WaitGroup.Wait, http.Client
// requests, net dials and connection I/O, os.File I/O, channel sends
// and receives outside a select with a default clause, selects without
// a default clause, and the repo's own goroutine-joining teardowns
// (sched.Live.Stop, cluster.Router.Close), which wait on worker
// goroutines that may themselves need the held lock.
//
// The analysis is intraprocedural (plus the named teardowns): it flags
// blocking constructs lexically under a Lock in the same function.
// sync.Cond.Wait is exempt — it requires the lock by contract — and so
// is any channel operation reachable only through a select that has a
// default clause (the shape of a non-blocking wake token).
package blockinlock

import (
	"go/ast"
	"go/token"
	"go/types"

	"eugene/internal/analysis"
	"eugene/internal/analysis/lockflow"
)

// Analyzer reports blocking calls and channel operations under a held
// mutex.
var Analyzer = &analysis.Analyzer{
	Name: "blockinlock",
	Doc: `report blocking operations (I/O, sleeps, channel waits, goroutine joins) while a mutex is held

A goroutine that blocks while holding a lock convoys every goroutine
that needs that lock. Channel operations are exempt inside a select
with a default clause; sync.Cond.Wait is exempt by contract.`,
	Run: run,
}

// blockingCall names one known-blocking function: package path,
// receiver type name ("" for package-level functions), and name.
type blockingCall struct {
	pkg, recv, name string
}

var blockingCalls = []blockingCall{
	{"time", "", "Sleep"},
	{"sync", "WaitGroup", "Wait"},
	{"net/http", "Client", "Do"},
	{"net/http", "Client", "Get"},
	{"net/http", "Client", "Post"},
	{"net/http", "Client", "PostForm"},
	{"net/http", "Client", "Head"},
	{"net/http", "", "Get"},
	{"net/http", "", "Post"},
	{"net/http", "", "PostForm"},
	{"net/http", "", "Head"},
	{"net", "", "Dial"},
	{"net", "", "DialTimeout"},
	{"net", "Conn", "Read"},
	{"net", "Conn", "Write"},
	{"os", "File", "Read"},
	{"os", "File", "ReadAt"},
	{"os", "File", "Write"},
	{"os", "File", "WriteAt"},
	{"os", "File", "Sync"},
	{"os", "", "Open"},
	{"os", "", "Create"},
	{"os", "", "ReadFile"},
	{"os", "", "WriteFile"},
	{"io", "", "ReadAll"},
	{"io", "", "Copy"},
	// Repo-specific teardowns that join goroutine pools (wg.Wait
	// inside): waiting for workers while holding a lock the workers'
	// completion path needs is a deadlock, not just a convoy.
	{"eugene/internal/sched", "Live", "Stop"},
	{"eugene/internal/cluster", "Router", "Close"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lockflow.Walk(pass, fd.Body, lockflow.Events{
				Node: func(n ast.Node, held []lockflow.Lock) {
					if len(held) == 0 {
						return
					}
					holding := held[len(held)-1].Name
					switch n := n.(type) {
					case *ast.SelectStmt:
						if !hasDefault(n) {
							pass.Reportf(n.Pos(), "select without a default clause blocks while holding %s", holding)
						}
					case *ast.SendStmt:
						pass.Reportf(n.Pos(), "channel send may block while holding %s; use a select with default or move it outside the lock", holding)
					case *ast.UnaryExpr:
						if n.Op == token.ARROW {
							pass.Reportf(n.Pos(), "channel receive may block while holding %s; use a select with default or move it outside the lock", holding)
						}
					case *ast.CallExpr:
						if name, ok := isBlockingCall(pass, n); ok {
							pass.Reportf(n.Pos(), "call to %s blocks while holding %s", name, holding)
						}
					}
				},
			})
		}
	}
	return nil, nil
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isBlockingCall matches call against the blocking table; it returns
// the display name of the matched function.
func isBlockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	recv := recvTypeName(fn)
	for _, b := range blockingCalls {
		if fn.Pkg().Path() == b.pkg && fn.Name() == b.name && recv == b.recv {
			if b.recv == "" {
				return b.pkg + "." + b.name, true
			}
			return b.recv + "." + b.name, true
		}
	}
	return "", false
}

// recvTypeName returns the name of fn's receiver type with pointers
// stripped, or "" for a package-level function.
func recvTypeName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
