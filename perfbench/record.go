package main

import (
	"context"
	"fmt"
)

// writeRecord computes the in-process reference for a workload and seed
// and saves it as the recorded output later runs are checked against.
func writeRecord(ctx context.Context, workload string, cfg config) error {
	rec := &record{Workload: workload, Seed: cfg.seed}
	switch workload {
	case "paper":
		_, _, jobs, err := paperPlan(cfg.seed)
		if err != nil {
			return err
		}
		ref, err := paperReference(ctx, jobs)
		if err != nil {
			return err
		}
		if rec.Fig13, err = fig13Gmeans(cfg.seed, ref); err != nil {
			return err
		}
		rec.Point, rec.Cells = paperPoint(), digestsOf(ref)
	case "serve":
		ref, err := referenceCells(ctx, distinctCells(serveSequences(cfg.seed)...))
		if err != nil {
			return err
		}
		rec.Point, rec.Cells = fastPointName, refDigests(ref)
	case "fleet":
		ref, err := referenceCells(ctx, newFleetGrid(cfg.seed).measured)
		if err != nil {
			return err
		}
		rec.Point, rec.Cells = fastPointName, refDigests(ref)
	default:
		return fmt.Errorf("no record for workload %q", workload)
	}
	return saveRecord(cfg.records, rec)
}
