package lint

import "strconv"

// analyzerBoundary enforces import quarantines: a sim-critical package must
// not import a quarantined package unless it is one of the boundary's
// declared adapters. The motivating quarantine is the real-process TCP
// transport (internal/node/tcptransport): it necessarily owns sockets and
// wall-clock deadlines, and each of its waivers is justified by "virtual time
// never flows through this package". That justification holds only as long
// as the simulation core cannot reach the transport at all — one import from
// internal/sim or internal/protocol and the waivers quietly start covering
// sim-critical code. The rule turns the boundary from a convention into a
// build gate; cross it deliberately with an //ecolint:allow boundary waiver
// naming the reason.
var analyzerBoundary = &Analyzer{
	Name:            RuleBoundary,
	Doc:             "forbids sim-critical packages importing quarantined packages (e.g. the TCP transport) outside their declared adapters",
	SimCriticalOnly: true,
	Run: func(pass *Pass) {
		for _, b := range pass.Cfg.Boundaries {
			quarantined := []string{b.Pkg}
			// The quarantined subtree may import itself; the adapters are the
			// sanctioned crossings.
			if matchScope(pass.Pkg.Path, quarantined) || matchScope(pass.Pkg.Path, b.AllowedFrom) {
				continue
			}
			for _, file := range pass.Pkg.Files {
				for _, imp := range file.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						continue
					}
					if matchScope(path, quarantined) {
						pass.Report(imp.Pos(), RuleBoundary,
							"import of quarantined package %s: only %v may cross this boundary (its wall-clock/goroutine waivers assume the simulation core cannot reach it)",
							path, b.AllowedFrom)
					}
				}
			}
		}
	},
}
