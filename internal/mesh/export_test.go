package mesh

// PeriodicWrap returns the wrap the mesh was numbered with, for the external
// tests.
func (m *Mesh) PeriodicWrap() func(p [3]float64) [3]float64 { return m.spec.PeriodicWrap }
