package cameo

import (
	"cameo/internal/dram"
	"cameo/internal/memorg"
)

func init() {
	memorg.Register(memorg.Descriptor{
		Kind:    memorg.KindCAMEO,
		Name:    "cameo",
		Display: "CAMEO",
		Summary: "congruence-group line remapping: stacked DRAM is both OS-visible capacity and a hardware-managed line cache",
		Paper:   "CAMEO, Chou/Jaleel/Qureshi, MICRO 2014",
		Geometry: func(e memorg.Env) (uint64, uint64) {
			groups := visibleGroups(e)
			return groups * uint64(e.StackedDivisor), groups
		},
		Build: func(e memorg.Env) (memorg.Organization, error) {
			off, err := e.NewOffChip(e.OffChipBytes)
			if err != nil {
				return nil, err
			}
			stacked, err := e.NewStacked()
			if err != nil {
				return nil, err
			}
			return NewSystem(Config{
				Groups:           e.StackedLines,
				Segments:         e.StackedDivisor,
				LLT:              LLTKind(e.LLT),
				Pred:             PredKind(e.Pred),
				Cores:            e.Cores,
				LLPEntries:       256,
				HotSwapThreshold: e.HotSwapThreshold,
				LLTCacheEntries:  e.LLTCacheEntries,
			}, stacked, off)
		},
	})
}

// visibleGroups returns the congruence-group count: the stacked lines that
// stay OS-visible under the most restrictive LLT layout (LEAD: 31 of 32),
// rounded down to a page multiple so the visible space is page-aligned.
func visibleGroups(e memorg.Env) uint64 {
	devLines := e.StackedBytes / dram.LineBytes
	g := VisibleStackedLines(devLines)
	return g - g%64 // segments * groups must stay a multiple of 64 lines
}
