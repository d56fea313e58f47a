package lint

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package time functions that read or depend on the
// host's clock. Pure constructors/arithmetic (time.Duration, time.Unix) are
// fine: the contract forbids observing real time, not representing it.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
}

// analyzerWallclock reports calls into the host clock from sim-critical
// packages. Simulated time is a time.Duration advanced by the event engine;
// reading the real clock makes a run irreproducible (handler timing,
// timeouts) or couples results to host speed. Genuinely wall-clock code —
// telemetry timers, run manifests, progress heartbeats — carries an
// //ecolint:allow wallclock annotation with the reason.
var analyzerWallclock = &Analyzer{
	Name:            RuleWallclock,
	Doc:             "forbids time.Now/Since/Sleep and ticker construction in sim-critical packages",
	SimCriticalOnly: true,
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !wallclockFuncs[sel.Sel.Name] {
					return true
				}
				if obj := pass.Pkg.Info.Uses[sel.Sel]; isPkgFunc(obj, "time") {
					pass.Report(call.Pos(), RuleWallclock,
						"time.%s reads the host clock; sim-critical code must use virtual time", sel.Sel.Name)
				}
				return true
			})
		}
	},
}

// isPkgFunc reports whether obj is a function declared at package level in
// the package with the given import path. A method is not: time.Time.After
// compares two instants, where time.After reads the clock.
func isPkgFunc(obj types.Object, pkgPath string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Type().(*types.Signature).Recv() == nil
}
