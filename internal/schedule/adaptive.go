package schedule

// AdaptiveRoundLength derives the executable round length K from measured
// work instead of a hand-picked flag: it is Assign's refresh window — the
// number of pipeline steps whose bubbles hold one curvature/inversion
// refresh (§3.1 reports 1-4 steps for its configurations), at most MaxSteps.
// Assign packs with the pass Executable emits op lists from, so a serialized
// round of this length is one the executable form fits too. The engine calls
// this at EnableKFAC time when Config.RefreshSteps asks for adaptive sizing,
// so the round length tracks the refresh-work-to-bubble ratio of the actual
// schedule, model shape, and replica topology. Like Assign, it ignores the
// round-shape fields of cfg (RefreshSteps, FrontLoadRefresh, Overlap).
func AdaptiveRoundLength(cfg Config) (int, error) {
	res, err := Assign(cfg)
	if err != nil {
		return 0, err
	}
	return res.RefreshSteps, nil
}
