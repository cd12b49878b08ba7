package fibermap

import "flag"

// Spec names one region: the paper's Fig. 10 toy, or the map generated
// from Seed with DCs placed by the same seed. Every binary that reads
// -seed and -dcs builds its region through Spec.Map, so one seed names
// one region whichever tool reads it.
type Spec struct {
	Toy  bool
	Seed int64
	DCs  int
}

// DefaultSpec is the generated region of seed 1 with the paper's 8 DCs
// (DefaultPlace().N).
func DefaultSpec() Spec {
	return Spec{Seed: 1, DCs: DefaultPlace().N}
}

// RegisterFlags declares -toy, -seed and -dcs on fs, each bound to the
// field it sets; a flag's default is the value its field holds when
// RegisterFlags is called.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&s.Toy, "toy", s.Toy, "use the paper's Fig. 10 toy region")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "region seed: the generated map, its DC placement and every other draw the tool makes")
	fs.IntVar(&s.DCs, "dcs", s.DCs, "DCs to place when not using the toy")
}

// Map builds the region s names.
func (s Spec) Map() (*Map, error) {
	if s.Toy {
		return Toy().Map, nil
	}
	return Placed(s.Seed, s.Seed, s.DCs)
}

// Placed generates the map of seed (DefaultGen) and places n DCs on it
// with placement seed placeSeed (DefaultPlace, §6.1). A region named by a
// Spec places with its own seed; the paper's figures pass their own
// placement seeds.
func Placed(seed, placeSeed int64, n int) (*Map, error) {
	gcfg := DefaultGen()
	gcfg.Seed = seed
	m := Generate(gcfg)
	pcfg := DefaultPlace()
	pcfg.Seed, pcfg.N = placeSeed, n
	if _, err := PlaceDCs(m, pcfg); err != nil {
		return nil, err
	}
	return m, nil
}
