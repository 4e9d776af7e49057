package main

import (
	"fmt"
	"math"
)

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// side is one document's view of a metric on a workload: one value per
// run, and the in-run spread when there is only one run to go by.
type side struct {
	Vals  []float64
	InRun float64
}

func (s side) median() float64 { return median(s.Vals) }

// spread is the run-to-run spread, or the spread inside the single run.
func (s side) spread() float64 {
	if len(s.Vals) >= 2 {
		return spread(s.Vals)
	}
	return s.InRun
}

// interval is the band the side's runs occupy: their quartiles, or for
// one run its median widened by half its in-run spread each way.
func (s side) interval() (lo, hi float64) {
	if len(s.Vals) >= 2 {
		return quartiles(s.Vals)
	}
	m := s.median()
	return m * (1 - s.InRun/2), m * (1 + s.InRun/2)
}

// judge compares a metric between two documents. change is how much
// worse new is than old as a share of old's median (negative = better).
// A change within the bound is "same". When either side's spread is
// wider than the bound and the two bands interleave, the data cannot
// tell, and the row is "unresolved" rather than "same".
func judge(old, new side, b bound) (verdict string, change float64) {
	mo, mn := old.median(), new.median()
	if mo == 0 {
		return verdictUnresolved, 0
	}
	change = (mn - mo) / math.Abs(mo)
	if b.Higher {
		change = -change
	}
	if math.Max(old.spread(), new.spread()) > b.Share {
		olo, ohi := old.interval()
		nlo, nhi := new.interval()
		if olo <= nhi && nlo <= ohi {
			return verdictUnresolved, change
		}
	}
	switch {
	case change > b.Share:
		return verdictWorse, change
	case change < -b.Share:
		return verdictBetter, change
	}
	return verdictSame, change
}

// compareFiles prints one row per workload and end-to-end metric the
// workload measures, with both medians and spreads and a verdict under the bounds of
// BENCHMARK.json. It fails on any "worse", on a fail_frac increase, and
// on documents from different environments.
func compareFiles(oldPath, newPath string) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	var oldDoc, newDoc Document
	if err := readJSON(oldPath, &oldDoc); err != nil {
		return err
	}
	if err := readJSON(newPath, &newDoc); err != nil {
		return err
	}
	bad, err := compareDocs(&oldDoc, &newDoc, sp.bounds())
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

func compareDocs(oldDoc, newDoc *Document, bounds map[string]bound) (bad int, err error) {
	if !oldDoc.Env.sameMachine(newDoc.Env) {
		return 0, fmt.Errorf("environment stamps differ, refusing to compare:\n  old %+v\n  new %+v", oldDoc.Env, newDoc.Env)
	}
	if oldDoc.Trace || newDoc.Trace {
		return 0, fmt.Errorf("end-to-end metrics come from the untraced pass; got a traced document")
	}
	fmt.Printf("%-18s %-16s %14s %8s %14s %8s %8s  %s\n", "workload", "metric", "old", "spread", "new", "spread", "change", "verdict")
	for _, w := range workloads() {
		if w.Name == "exact-composed" && newDoc.Env.tierDegraded() {
			fmt.Printf("%-18s tier_degraded: no int16x16 kernel on this CPU, not compared\n", w.Name)
			continue
		}
		for _, d := range endToEnd {
			if newDoc.aliasOf(w.Name, d.Name) != "" {
				continue // restates another row of this workload
			}
			var o, n side
			o.Vals, o.InRun = oldDoc.samples(w.Name, d.Name)
			n.Vals, n.InRun = newDoc.samples(w.Name, d.Name)
			if len(o.Vals) == 0 || len(n.Vals) == 0 {
				return bad, fmt.Errorf("%s %s: missing from a document", w.Name, d.Name)
			}
			verdict, change := judge(o, n, bounds[d.Name])
			if verdict == verdictWorse {
				bad++
			}
			fmt.Printf("%-18s %-16s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%%  %s\n",
				w.Name, d.Name, o.median(), 100*o.spread(), n.median(), 100*n.spread(), 100*change, verdict)
		}
		if fo, fn := oldDoc.failFrac(w.Name), newDoc.failFrac(w.Name); fn > fo {
			bad++
			fmt.Printf("%-18s %-16s %14.6g %8s %14.6g %8s %8s  %s\n", w.Name, "fail_frac", fo, "", fn, "", "", verdictWorse)
		}
	}
	return bad, nil
}
