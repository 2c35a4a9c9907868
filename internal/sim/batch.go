package sim

// SweepPoint is one population size's aggregated convergence result.
type SweepPoint struct {
	X     int64 `json:"x"`
	Stats Stats `json:"stats"`
}
