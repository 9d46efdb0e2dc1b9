// Package rcnet assembles and solves the grid-level thermal RC network of
// Section III: a HotSpot-style lumped network over the cells of a
// discretized 3D stack, extended with the paper's heterogeneous interlayer
// model (per-cell resistivity covering TSVs and microchannels) and with
// runtime-variable coolant flow.
//
// Liquid-cooled stacks exchange heat with the coolant through a per-cell
// convective conductance derived from Eqn. 7's effective heat-transfer
// coefficient; the coolant temperature profile along each channel is
// marched per tick with the paper's iterative ΔTheat accumulation (Eqn. 4
// generalized). Air-cooled stacks attach a lumped spreader/sink node with
// Table III's convection resistance and capacitance.
//
// A Network is the immutable assembly of one grid and configuration (the
// conduction Laplacian, capacitances and convective conductances); a
// Model is one simulation's mutable state over a network, and any number
// of models share one network.
//
// The network is solved with backward-Euler time stepping (unconditionally
// stable for the stiff RC systems that 0.4 mm cavities against 100 ms ticks
// produce). The default linear solver is a cached sparse LDLᵀ direct
// factorization. The convective coefficient is fixed once the boundary
// layers develop, so the system matrix depends only on whether the pump
// runs and on the time step, not on the flow setting: it is analyzed
// symbolically once (fill-reducing nested-dissection or RCM ordering),
// factored numerically the first time each (flow > 0, dt) combination is
// solved — once for all the models that share a factor cache (Factors; a
// platform's run models do) — and every subsequent tick costs just two
// triangular sweeps, allocation-free. Preconditioned conjugate gradient
// (SSOR by default, Jacobi optional) remains available as a cross-check
// (Config.Solver) and as the automatic fallback; steady states are
// fixed-point iterations between the conduction solve and the coolant
// march.
package rcnet

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/microchannel"
	"repro/internal/units"
)

// Config carries the boundary conditions and package parameters.
type Config struct {
	// AmbientAir is the air temperature for the air-cooled package.
	AmbientAir units.Kelvin
	// CoolantInlet is the coolant inlet temperature. The paper's Fig. 5
	// spans maximum temperatures of 70–90 °C against an 80 °C target,
	// which pins the operating regime to warm-water cooling; we default
	// to 70 °C (see EXPERIMENTS.md).
	CoolantInlet units.Kelvin
	// SinkSpreadResistivity is the per-area resistance (K·m²/W) between
	// the top die and the lumped sink node: TIM plus spreader plus
	// spreading, calibrated for the compact 3D package (the paper uses
	// HotSpot's default package; this is our lumped equivalent).
	SinkSpreadResistivity float64
	// SinkConvectionR is the sink-to-ambient convection resistance
	// (Table III: 0.1 K/W).
	SinkConvectionR float64
	// SinkCapacitance is the lumped package capacitance (Table III:
	// 140 J/K).
	SinkCapacitance float64
	// InitTemp is the uniform initial temperature.
	InitTemp units.Kelvin
	// SolverTol is the CG relative tolerance (default 1e-8).
	SolverTol float64
	// Precond selects the CG preconditioner. The zero value is Jacobi
	// scaling; DefaultConfig picks SSOR, which roughly halves the
	// iteration count at about one extra matvec per iteration — ~30%
	// faster per Step on the paper-resolution grid.
	Precond mat.Preconditioner
	// Solver selects the linear solver: the zero value SolverAuto uses
	// the cached sparse LDLᵀ direct solver (factor once per (flow > 0,
	// dt) key, two triangular sweeps per tick) with CG as the fallback;
	// SolverCG forces the iterative path. The analysis picks the LDLᵀ
	// kernel family (scalar columns vs dense supernodal panels) by
	// system size (mat.LDLSymbolic.SupernodalProfitable).
	Solver SolverKind
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		AmbientAir:            units.Celsius(45).ToKelvin(),
		CoolantInlet:          units.Celsius(70).ToKelvin(),
		SinkSpreadResistivity: 3.5e-5,
		SinkConvectionR:       0.1,
		SinkCapacitance:       140,
		InitTemp:              units.Celsius(60).ToKelvin(),
		SolverTol:             1e-8,
		Precond:               mat.PrecondSSOR,
		Solver:                SolverAuto,
	}
}

// Network is the assembled thermal network of one grid and
// configuration: the conduction Laplacian, the nodal capacitances, the
// per-cell convective conductances, the diagonal slots of the system
// matrix and the initial boundary profile. It is immutable once built
// (NewNetwork) and shared read-only by every model stepping on it
// (NewModel), so a platform assembles its network once and any number of
// its models may step concurrently.
type Network struct {
	Grid *grid.Grid
	Cfg  Config

	n        int // total unknowns (grid nodes, +1 sink for air)
	sinkNode int // -1 when liquid-cooled

	base     *mat.CSR  // conduction Laplacian (diagonal included)
	baseDiag []float64 // cached diagonal of base
	capac    []float64 // nodal heat capacitances (J/K)
	convG    []float64 // per-node convective conductance at unit coverage
	sysDiag  []int     // position of each row's diagonal entry in base.Val

	// channelsPerRow is the number of channels crossing one cell row of a
	// cavity (uniform across cavities and rows under homogenization).
	channelsPerRow float64

	// Initial boundary profile a model starts from: zero convection (the
	// pump is off) with the coolant at the inlet temperature, and the air
	// sink's conductance to ambient.
	boundG, boundT []float64
}

// Model is a solvable thermal network bound to one grid: the mutable
// state of one simulation over a shared Network.
type Model struct {
	Grid *grid.Grid
	Cfg  Config

	net *Network
	n   int // net.n

	boundG []float64 // per-node boundary conductance (W/K)
	boundT []float64 // per-node boundary temperature (K)
	heat   []float64 // per-node injected power (W)

	temp []float64 // current temperatures (K)

	flow    units.LitersPerMinute     // per-cavity delivered flow
	perChan units.CubicMeterPerSecond // per-channel flow

	// Flow-dependent coolant-march coefficients, refreshed by SetFlow so
	// marchCoolant runs exp-free every tick: rowCap is the per-row
	// transport capacity ρ·c·V̇·channels, decay[i] = exp(−gᵢ/rowCap) and
	// invRatio[i] = rowCap/gᵢ for every convective cell i.
	rowCap   float64
	decay    []float64
	invRatio []float64

	// totalPower caches the sum over heat, invalidated by SetLayerPower
	// (SteadyState reads it every outer iteration).
	totalPower   float64
	totalPowerOK bool

	// spread is the reusable SetLayerPower cell buffer.
	spread []float64

	// sys is the system matrix: its structure aliases the network's
	// Laplacian, its values are the model's own (buildSystem rewrites
	// the diagonal).
	sys      *mat.CSR
	rhs, old []float64
	ws       mat.CGWorkspace // CG scratch, reused across Step/SteadyState
	ssPrev   []float64       // SteadyState fixed-point scratch

	// Direct-solver state: one symbolic analysis per model (the sparsity
	// is the network's; a clone of a shared one when NewModel is given
	// one), numeric factors per factorKey from a factor source — private,
	// or shared by every model of a platform — and a memo of this model's
	// views into them.
	symb    *mat.LDLSymbolic
	factors *Factors
	views   map[factorKey]*mat.LDLNumeric
	viewSeq []factorKey // insertion order, for FIFO eviction
	nFactor int         // numeric factorizations performed (diagnostics)

	// Step-doubling estimator scratch (StepWithEstimate).
	estState TransientState
	estFull  []float64
}

// New builds the thermal network for g and one model on it; it is
// NewNetwork followed by NewModel(nil, nil).
func New(g *grid.Grid, cfg Config) (*Model, error) {
	net, err := NewNetwork(g, cfg)
	if err != nil {
		return nil, err
	}
	return net.NewModel(nil, nil)
}

// NewNetwork assembles the thermal network for g.
func NewNetwork(g *grid.Grid, cfg Config) (*Network, error) {
	if cfg.SolverTol == 0 {
		cfg.SolverTol = 1e-8
	}
	net := &Network{Grid: g, Cfg: cfg, sinkNode: -1}
	net.n = g.TotalNodes()
	if !g.Stack.LiquidCooled {
		net.sinkNode = net.n
		net.n++
	}
	net.capac = make([]float64, net.n)
	net.convG = make([]float64, net.n)
	net.boundG = make([]float64, net.n)
	net.boundT = make([]float64, net.n)
	if err := net.assemble(); err != nil {
		return nil, err
	}
	// buildSystem only perturbs the diagonal of the fixed-sparsity base
	// Laplacian, so cache each row's diagonal slot once and rewrite just
	// those entries per solve instead of re-copying the whole matrix.
	net.sysDiag = make([]int, net.n)
	if err := net.base.DiagIndex(net.sysDiag); err != nil {
		return nil, fmt.Errorf("rcnet: %w", err)
	}
	if g.Stack.LiquidCooled {
		// Channels crossing one cell row of a cavity:
		// channelsPerCavity · cellH / stackHeight.
		net.channelsPerRow = float64(g.Stack.ChannelsPerCavity) *
			float64(g.CellH) / float64(g.Stack.Height)
		if _, err := microchannel.PerChannelFlow(0, g.Stack.ChannelsPerCavity); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// Analyze performs the symbolic LDLᵀ analysis of the network's system
// matrix structure (every model's system matrix shares it). The result
// seeds NewModel, which hands each model a private clone.
func (net *Network) Analyze() (*mat.LDLSymbolic, error) {
	return mat.AnalyzeLDL(net.base, mat.OrderAuto)
}

// NewModel returns a fresh model on the network at zero flow and the
// configured initial temperature. It owns its mutable state and shares
// the network's arrays read-only. A non-nil symb (from Analyze or
// EnsureSymbolic on a model of this network) seeds the direct solver
// with a private clone, so the ordering and fill analysis is skipped;
// with it, a non-nil factors makes the model draw its numeric factors
// from that shared cache, which must only ever serve models of one
// network and analysis (a platform's). A nil factors, or a nil symb,
// keeps a private cache.
func (net *Network) NewModel(symb *mat.LDLSymbolic, factors *Factors) (*Model, error) {
	n := net.n
	m := &Model{
		Grid:     net.Grid,
		Cfg:      net.Cfg,
		net:      net,
		n:        n,
		boundG:   slices.Clone(net.boundG),
		boundT:   slices.Clone(net.boundT),
		heat:     make([]float64, n),
		temp:     make([]float64, n),
		decay:    make([]float64, n),
		invRatio: make([]float64, n),
		rhs:      make([]float64, n),
		old:      make([]float64, n),
		sys: &mat.CSR{N: n, RowPtr: net.base.RowPtr, Col: net.base.Col,
			Val: slices.Clone(net.base.Val)},
		views: make(map[factorKey]*mat.LDLNumeric),
	}
	for i := range m.temp {
		m.temp[i] = float64(net.Cfg.InitTemp)
	}
	if symb != nil && net.Cfg.Solver != SolverCG {
		if !symb.Matches(m.sys) {
			return nil, fmt.Errorf("rcnet: shared symbolic analysis is for a different structure (%d nodes, model has %d)",
				symb.N(), n)
		}
		m.symb = symb.Clone()
		m.factors = factors
	}
	if m.factors == nil {
		m.factors = NewFactors()
	}
	return m, nil
}

// EnsureSymbolic performs (or returns the already-performed) symbolic
// LDLᵀ analysis of the model's system matrix. The result can seed
// NewModel so further models on the same network skip the ordering and
// fill analysis; it must not be handed to concurrent users directly
// (they receive private clones through NewModel).
func (m *Model) EnsureSymbolic() (*mat.LDLSymbolic, error) {
	if m.symb == nil {
		s, err := m.net.Analyze()
		if err != nil {
			return nil, err
		}
		m.symb = s
	}
	return m.symb, nil
}

// conductivity returns the (lateral, vertical) conductivities of a cell.
// Liquid cavities use the silicon-walled channel-structure model; plain
// bonding interfaces (air-cooled stacks) use the homogenized polymer+TSV
// mix matching Table III's 0.25 m·K/W resistivity.
func cellConductivity(s *grid.Slab, idx int) (kLat, kVert float64) {
	switch s.Kind {
	case grid.SlabDie:
		return microchannel.SiliconConductivity, microchannel.SiliconConductivity
	default:
		c := s.Inter[idx]
		f := microchannel.CellFractions{Channel: c.ChannelFrac, TSV: c.TSVFrac}
		if s.Liquid {
			k := f.CavityConductivity(float64(s.Thickness))
			return k, k
		}
		return f.LateralConductivity(), f.VerticalConductivity()
	}
}

func cellHeatCapacity(s *grid.Slab, idx int) float64 {
	switch s.Kind {
	case grid.SlabDie:
		return microchannel.SiliconVolumetricHeatCapacity
	default:
		c := s.Inter[idx]
		f := microchannel.CellFractions{Channel: c.ChannelFrac, TSV: c.TSVFrac}
		if s.Liquid {
			return f.CavityVolumetricHeatCapacity()
		}
		return f.VolumetricHeatCapacity()
	}
}

// assemble builds the conduction Laplacian, capacitances and static
// boundary terms.
func (net *Network) assemble() error {
	g := net.Grid
	b := mat.NewBuilder(net.n)
	// ~1 diagonal seed + 3 neighbor couplings × 4 entries per node.
	b.Grow(14 * net.n)
	cellA := float64(g.CellArea())
	dx, dy := float64(g.CellW), float64(g.CellH)

	// Ensure every diagonal entry exists even for isolated nodes.
	for i := 0; i < net.n; i++ {
		b.Add(i, i, 0)
	}

	addCoupling := func(a, c int, gcond float64) {
		b.Add(a, a, gcond)
		b.Add(c, c, gcond)
		b.Add(a, c, -gcond)
		b.Add(c, a, -gcond)
	}

	for si := range g.Slabs {
		s := &g.Slabs[si]
		t := float64(s.Thickness)
		for iy := 0; iy < g.NY; iy++ {
			for ix := 0; ix < g.NX; ix++ {
				idx := iy*g.NX + ix
				node := g.NodeIndex(si, iy, ix)
				kL, _ := cellConductivity(s, idx)
				// Capacitance.
				net.capac[node] = cellHeatCapacity(s, idx) * cellA * t
				// Lateral couplings (add once per pair: to +x and +y).
				if ix+1 < g.NX {
					kL2, _ := cellConductivity(s, iy*g.NX+ix+1)
					r := dx/(2*kL*dy*t) + dx/(2*kL2*dy*t)
					addCoupling(node, g.NodeIndex(si, iy, ix+1), 1/r)
				}
				if iy+1 < g.NY {
					kL2, _ := cellConductivity(s, (iy+1)*g.NX+ix)
					r := dy/(2*kL*dx*t) + dy/(2*kL2*dx*t)
					addCoupling(node, g.NodeIndex(si, iy+1, ix), 1/r)
				}
				// Vertical coupling to slab above.
				if si+1 < len(g.Slabs) {
					s2 := &g.Slabs[si+1]
					_, kV1 := cellConductivity(s, idx)
					_, kV2 := cellConductivity(s2, idx)
					r := t/(2*kV1*cellA) + float64(s2.Thickness)/(2*kV2*cellA)
					// Each die's wiring stack (BEOL) faces the slab
					// above it (Fig. 2): add Rth-BEOL in series.
					if s.Kind == grid.SlabDie {
						r += microchannel.RthBEOL / cellA
					}
					addCoupling(node, g.NodeIndex(si+1, iy, ix), 1/r)
				}
			}
		}
	}

	// Boundary terms.
	if g.Stack.LiquidCooled {
		// Convective conductance of each cavity cell at the current flow
		// is convG (flow-independent in magnitude once boundary layers
		// develop — Section III.A — but switched off at zero flow).
		// G = h · 2(wc+tc) · Lchan, with Lchan the channel length inside
		// the cell: frac·A/wc.
		for _, ci := range g.CavitySlabs() {
			s := &g.Slabs[ci]
			for idx, c := range s.Inter {
				if c.ChannelFrac <= 0 {
					continue
				}
				lchan := c.ChannelFrac * cellA / microchannel.ChannelWidth
				gconv := microchannel.HeatTransferCoeff *
					2 * (microchannel.ChannelWidth + microchannel.ChannelHeight) * lchan
				node := ci*g.NumCells() + idx
				net.convG[node] = gconv
				net.boundT[node] = float64(net.Cfg.CoolantInlet)
			}
		}
	} else {
		// Couple every top-die cell to the lumped sink node, and the sink
		// to ambient.
		top := len(g.Slabs) - 1
		s := &g.Slabs[top]
		if s.Kind != grid.SlabDie {
			return fmt.Errorf("rcnet: air-cooled stack must end with a die slab")
		}
		t := float64(s.Thickness)
		for idx := 0; idx < g.NumCells(); idx++ {
			_, kV := cellConductivity(s, idx)
			r := t/(2*kV*cellA) + (microchannel.RthBEOL+net.Cfg.SinkSpreadResistivity)/cellA
			addCoupling(g.NodeIndex(top, idx/g.NX, idx%g.NX), net.sinkNode, 1/r)
		}
		net.capac[net.sinkNode] = net.Cfg.SinkCapacitance
		net.boundG[net.sinkNode] = 1 / net.Cfg.SinkConvectionR
		net.boundT[net.sinkNode] = float64(net.Cfg.AmbientAir)
	}

	net.base = b.Build()
	if !net.base.IsSymmetric(1e-9) {
		return fmt.Errorf("rcnet: assembled matrix not symmetric")
	}
	net.baseDiag = make([]float64, net.n)
	net.base.Diagonal(net.baseDiag)
	return nil
}

// SetFlow sets the delivered per-cavity volumetric flow rate. Zero turns
// convection off (stagnant coolant still conducts). Returns an error for
// negative flow or on an air-cooled model with non-zero flow.
func (m *Model) SetFlow(perCavity units.LitersPerMinute) error {
	if perCavity < 0 {
		return fmt.Errorf("rcnet: negative flow %v", perCavity)
	}
	if !m.Grid.Stack.LiquidCooled {
		if perCavity != 0 {
			return fmt.Errorf("rcnet: flow on air-cooled model")
		}
		return nil
	}
	m.flow = perCavity
	v, err := microchannel.PerChannelFlow(perCavity, m.Grid.Stack.ChannelsPerCavity)
	if err != nil {
		return err
	}
	m.perChan = v
	m.rowCap = 0
	if v > 0 {
		m.rowCap = microchannel.CoolantDensity * microchannel.CoolantHeatCapacity *
			float64(v) * m.net.channelsPerRow
	}
	for node, gc := range m.net.convG {
		if gc == 0 {
			continue
		}
		if perCavity > 0 {
			// Flow-independent once the boundary layers develop, so the
			// system matrix only depends on whether the pump runs; a
			// flow-dependent boundG must re-key factorKey.
			m.boundG[node] = gc
			// Per-cell march coefficients (see marchCoolant): they only
			// change with the flow, so the per-tick march stays exp-free.
			ratio := gc / m.rowCap
			m.decay[node] = math.Exp(-ratio)
			m.invRatio[node] = 1 / ratio
		} else {
			m.boundG[node] = 0
		}
	}
	return nil
}

// Flow returns the current per-cavity flow.
func (m *Model) Flow() units.LitersPerMinute { return m.flow }

// SetLayerPower installs per-block power (W) for stack layer li, spread
// uniformly over each block's cells. It reuses a model-owned spread buffer
// so per-tick power updates are allocation-free.
func (m *Model) SetLayerPower(li int, blockPower []float64) error {
	if m.spread == nil {
		m.spread = make([]float64, m.Grid.NumCells())
	}
	cells, err := m.Grid.SpreadBlockPowerInto(li, blockPower, m.spread)
	if err != nil {
		return err
	}
	slab := m.Grid.DieSlab[li]
	off := slab * m.Grid.NumCells()
	for i, p := range cells {
		m.heat[off+i] = p
	}
	m.totalPowerOK = false
	return nil
}

// TotalPower returns the currently injected power. The sum is cached and
// invalidated by SetLayerPower (SteadyState's fixed point reads it every
// outer iteration).
func (m *Model) TotalPower() units.Watt {
	if !m.totalPowerOK {
		s := 0.0
		for _, p := range m.heat {
			s += p
		}
		m.totalPower = s
		m.totalPowerOK = true
	}
	return units.Watt(m.totalPower)
}

// marchCoolant updates the boundary temperatures of all cavity cells by
// integrating absorbed heat along each channel row (the paper's iterative
// ΔTheat). It uses the current cell temperatures. relax in (0,1] blends the
// new profile into the previous one; the steady-state fixed point uses
// under-relaxation to stay stable at very low flows where the profile is
// extremely sensitive to the wall temperatures.
func (m *Model) marchCoolant(relax float64) {
	g := m.Grid
	if !g.Stack.LiquidCooled || m.perChan <= 0 {
		return
	}
	inlet := float64(m.Cfg.CoolantInlet)
	convG := m.net.convG
	for _, ci := range g.CavitySlabs() {
		off := ci * g.NumCells()
		for iy := 0; iy < g.NY; iy++ {
			tf := inlet
			for ix := 0; ix < g.NX; ix++ {
				node := off + iy*g.NX + ix
				if convG[node] == 0 {
					continue
				}
				// Exact segment integration for constant wall
				// temperature: dTf/dξ = (g/c)(Tw − Tf) over the cell
				// gives the exponential approach
				//   Tf,out = Tw + (Tf,in − Tw)·e^(−g/c),
				// unconditionally stable even when the coolant
				// saturates (g ≫ c at very low flows). The boundary
				// node sees the energy-consistent mean fluid
				// temperature Tw − c·(Tf,out − Tf,in)/g... expressed
				// via the log-mean form below. The per-cell e^(−g/c)
				// and c/g coefficients depend only on the flow, so
				// SetFlow precomputes them (decay, invRatio) and the
				// per-tick march is exp-free.
				tw := m.temp[node]
				tfOut := tw + (tf-tw)*m.decay[node]
				// Mean such that gc·(Tw − mean) = rowCap·(tfOut − tf).
				mean := tw - (tfOut-tf)*m.invRatio[node]
				m.boundT[node] += relax * (mean - m.boundT[node])
				tf = tfOut
			}
		}
	}
}

// buildSystem writes A = G + diag(boundG) + diag(C/dt) into m.sys (dt may
// be 0 for steady state) and the matching RHS into m.rhs. Only the diagonal
// of the fixed-sparsity base Laplacian is perturbed, so the off-diagonal
// values copied from the network at construction are reused untouched and
// each diagonal entry is overwritten through its cached slot.
func (m *Model) buildSystem(dt float64) {
	capac, sysDiag, baseDiag := m.net.capac, m.net.sysDiag, m.net.baseDiag
	val, rhs := m.sys.Val, m.rhs
	for i := 0; i < m.n; i++ {
		extra := m.boundG[i]
		if dt > 0 {
			extra += capac[i] / dt
		}
		val[sysDiag[i]] = baseDiag[i] + extra
		rhs[i] = m.heat[i] + m.boundG[i]*m.boundT[i]
		if dt > 0 {
			rhs[i] += capac[i] / dt * m.old[i]
		}
	}
}

// Step advances the transient solution by dt seconds with backward Euler,
// marching the coolant once per step (the paper re-computes flux-dependent
// terms periodically rather than continuously). With the default direct
// solver the first Step after a new (flow > 0, dt) combination factors
// the system once; every later tick reuses the cached factors and performs
// just two triangular sweeps, allocation-free.
func (m *Model) Step(dt units.Second) error {
	if dt <= 0 {
		return fmt.Errorf("rcnet: non-positive dt %v", dt)
	}
	m.prepareStep(float64(dt))
	return m.solvePrepared(float64(dt))
}

// prepareStep runs the pre-solve half of Step: coolant march, state
// rotation and system assembly. After it, the model's (sys, rhs) pair is
// ready for solvePrepared — or for a gang's SolveBatch sweep (see
// BatchStepper), which is why the halves are split.
func (m *Model) prepareStep(dt float64) {
	m.marchCoolant(1)
	copy(m.old, m.temp)
	m.buildSystem(dt)
}

// solvePrepared runs the post-assembly half of Step: the cached direct
// solve with the CG fallback. Step ≡ prepareStep + solvePrepared.
func (m *Model) solvePrepared(dt float64) error {
	if done, err := m.solveDirect(dt); err != nil {
		return fmt.Errorf("rcnet: transient solve: %w", err)
	} else if done {
		return nil
	}
	_, err := m.ws.Solve(m.sys, m.temp, m.rhs,
		mat.CGOptions{Tol: m.Cfg.SolverTol, Precond: m.Cfg.Precond})
	if err != nil {
		return fmt.Errorf("rcnet: transient solve: %w", err)
	}
	return nil
}

// SteadyState solves for the equilibrium temperature field via fixed-point
// iteration between the conduction solve and the coolant march.
func (m *Model) SteadyState() error {
	if m.Grid.Stack.LiquidCooled && m.perChan <= 0 {
		return fmt.Errorf("rcnet: steady state needs non-zero flow on a liquid-cooled stack")
	}
	const maxOuter = 400
	// At low flows the coolant saturates to the wall temperature and the
	// plain fixed point converges geometrically with a vanishing rate:
	// the global temperature offset is nearly unobservable to the local
	// updates. Accelerate that mode explicitly: after each solve, shift
	// the whole field by the net energy imbalance divided by the total
	// coolant transport capacity (the exact sensitivity of heat removal
	// to a uniform temperature offset in the saturated regime).
	totalTransport := 0.0
	if m.Grid.Stack.LiquidCooled {
		totalTransport = m.rowCap * float64(m.Grid.NY) * float64(len(m.Grid.CavitySlabs()))
	}
	if m.ssPrev == nil {
		m.ssPrev = make([]float64, m.n)
	}
	prev := m.ssPrev
	copy(prev, m.temp)
	for outer := 0; outer < maxOuter; outer++ {
		// Full updates while far from the fixed point, under-relaxed
		// once close (low flows react strongly to wall temperatures).
		relax := 1.0
		if outer > 2 {
			relax = 0.6
		}
		m.marchCoolant(relax)
		m.buildSystem(0)
		// The dt=0 matrix is constant across the whole fixed point (only
		// the coolant boundary temperatures on the RHS move) and across
		// every non-zero flow, so the direct path factors it once and
		// every outer iteration — and every ladder point at every pump
		// setting of a controller.BuildLUT sweep — reuses the cached
		// factors.
		if done, err := m.solveDirect(0); err != nil {
			return fmt.Errorf("rcnet: steady solve: %w", err)
		} else if !done {
			_, err := m.ws.Solve(m.sys, m.temp, m.rhs,
				mat.CGOptions{Tol: m.Cfg.SolverTol, MaxIter: 20 * m.n, Precond: m.Cfg.Precond})
			if err != nil {
				return fmt.Errorf("rcnet: steady solve: %w", err)
			}
		}
		if totalTransport > 0 {
			imbalance := float64(m.TotalPower()) - float64(m.HeatRemovedByCoolant())
			offset := units.Clamp(imbalance/totalTransport, -10, 10)
			if math.Abs(offset) > 1e-9 {
				for i := range m.temp {
					m.temp[i] += offset
				}
				for node, gc := range m.net.convG {
					if gc > 0 && m.boundG[node] > 0 {
						m.boundT[node] += offset
					}
				}
			}
		}
		// Converged when no node moves appreciably.
		delta := 0.0
		for i := range prev {
			if d := math.Abs(m.temp[i] - prev[i]); d > delta {
				delta = d
			}
		}
		if delta < 1e-5 {
			return nil
		}
		copy(prev, m.temp)
	}
	return fmt.Errorf("rcnet: steady-state fixed point did not converge in %d iterations", maxOuter)
}

// Temps returns the raw node temperatures (K). The slice aliases internal
// state: it is invalidated by the next Step/SteadyState call and must not
// be modified or read concurrently with one. Use TempsCopy when the values
// must outlive the model's next solve (e.g. when models run on worker
// goroutines).
func (m *Model) Temps() []float64 { return m.temp }

// TempsCopy returns a snapshot of the node temperatures (K) sharing no
// storage with the model — the race-safe counterpart of Temps.
func (m *Model) TempsCopy() []float64 {
	return append([]float64(nil), m.temp...)
}

// SetUniformTemp resets every node to t.
func (m *Model) SetUniformTemp(t units.Kelvin) {
	for i := range m.temp {
		m.temp[i] = float64(t)
	}
}

// BlockTemp returns the mean temperature over the cells of block bi on
// stack layer li.
func (m *Model) BlockTemp(li, bi int) units.Kelvin {
	cells := m.Grid.BlockCells[li][bi]
	off := m.Grid.DieSlab[li] * m.Grid.NumCells()
	s := 0.0
	for _, c := range cells {
		s += m.temp[off+c]
	}
	return units.Kelvin(s / float64(len(cells)))
}

// BlockMaxTemp returns the hottest cell of block bi on layer li.
func (m *Model) BlockMaxTemp(li, bi int) units.Kelvin {
	cells := m.Grid.BlockCells[li][bi]
	off := m.Grid.DieSlab[li] * m.Grid.NumCells()
	mx := math.Inf(-1)
	for _, c := range cells {
		if m.temp[off+c] > mx {
			mx = m.temp[off+c]
		}
	}
	return units.Kelvin(mx)
}

// MaxDieTemp returns the hottest die-cell temperature, the paper's Tmax.
func (m *Model) MaxDieTemp() units.Kelvin {
	mx := math.Inf(-1)
	g := m.Grid
	for _, slab := range g.DieSlab {
		off := slab * g.NumCells()
		for i := 0; i < g.NumCells(); i++ {
			if m.temp[off+i] > mx {
				mx = m.temp[off+i]
			}
		}
	}
	return units.Kelvin(mx)
}

// CoolantOutletTemp returns the mean outlet coolant temperature of cavity
// slab ci (a CavitySlabs index), for energy accounting and diagnostics.
func (m *Model) CoolantOutletTemp(ci int) units.Kelvin {
	g := m.Grid
	off := ci * g.NumCells()
	sum, cnt := 0.0, 0
	for iy := 0; iy < g.NY; iy++ {
		node := off + iy*g.NX + (g.NX - 1)
		if m.net.convG[node] > 0 {
			sum += m.boundT[node]
			cnt++
		}
	}
	if cnt == 0 {
		return m.Cfg.CoolantInlet
	}
	return units.Kelvin(sum / float64(cnt))
}

// HeatRemovedByCoolant returns the instantaneous heat flow into the
// coolant (W).
func (m *Model) HeatRemovedByCoolant() units.Watt {
	s := 0.0
	for node, gb := range m.boundG {
		if m.net.convG[node] > 0 && gb > 0 {
			s += gb * (m.temp[node] - m.boundT[node])
		}
	}
	return units.Watt(s)
}

// NumNodes returns the unknown count (diagnostics).
func (m *Model) NumNodes() int { return m.n }
