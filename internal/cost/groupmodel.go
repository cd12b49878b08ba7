package cost

// PortModel is the §2.4 group model: N DCs of P DCI ports each, organised
// into G balanced groups. Each group's DCs connect to a group-local hub
// and all groups are directly meshed. G=1 is the fully centralized
// hub-and-spoke design, G=N the fully distributed all-pairs mesh (where
// the degenerate one-DC group hub collapses into the DC itself).
type PortModel struct {
	N int // number of DCs
	P int // DCI ports (transceivers) per DC
	G int // number of groups; must divide into 1..N
}

// dcPorts returns the capacity-edge ports at the DCs: N·P, independent of
// the grouping.
func (pm PortModel) dcPorts() int { return pm.N * pm.P }

// hubPorts returns the in-network ports. Each group hub terminates its
// group's full downstream capacity plus the upstream mesh to other groups,
// N·P ports per hub regardless of group size (§2.4); the fully distributed
// case folds each degenerate hub into its DC, saving the hub's downstream
// ports.
func (pm PortModel) hubPorts() int {
	if pm.G == pm.N {
		return pm.N * (pm.N - 1) * pm.P
	}
	return pm.G * pm.N * pm.P
}

// TotalPorts returns all DCI ports in the design: (G+1)·N·P in general,
// N²·P when fully distributed.
func (pm PortModel) TotalPorts() int { return pm.dcPorts() + pm.hubPorts() }

// intraGroupPorts returns the ports on DC-to-group-hub links — the ports
// eligible for short-reach transceivers in the optimistic Fig. 7 variant.
// Fully distributed designs have no intra-group links.
func (pm PortModel) intraGroupPorts() int {
	if pm.G == pm.N {
		return 0
	}
	return 2 * pm.N * pm.P // DC side + hub downstream side
}

// interGroupPorts returns ports on hub-to-hub (or DC-to-DC) mesh links,
// which always need DCI-reach transceivers.
func (pm PortModel) interGroupPorts() int { return pm.TotalPorts() - pm.intraGroupPorts() }

// ElectricalCost prices the model with electrical packet switching: every
// port has an electrical switch port and a transceiver. With srIntraGroup,
// intra-group ports use short-reach transceivers — optimistic, since
// hub-DC runs under 2 km are rarely achievable (§2.4).
func (pm PortModel) ElectricalCost(c Catalog, srIntraGroup bool) float64 {
	intra, inter := pm.intraGroupPorts(), pm.interGroupPorts()
	intraTransceiver := c.DCITransceiver
	if srIntraGroup {
		intraTransceiver = c.SRTransceiver
	}
	return float64(intra)*(intraTransceiver+c.ElectricalPort) +
		float64(inter)*(c.DCITransceiver+c.ElectricalPort)
}

// OpticalCost prices the model with an optical network core: the DC-edge
// ports keep their DCI transceivers and electrical ports, while every
// in-network port becomes a reconfigurable optical (OSS) port — the third
// column of Fig. 7.
func (pm PortModel) OpticalCost(c Catalog) float64 {
	return float64(pm.dcPorts())*(c.DCITransceiver+c.ElectricalPort) +
		float64(pm.hubPorts())*c.OSSPort
}
