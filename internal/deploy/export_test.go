package deploy

import (
	"shadowdb/internal/gpm"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// Arm is arm, for the loopback tests that arm each node's checker the way
// Serve does.
func (n Node) Arm(cl *Cluster, o *obs.Obs, proc gpm.Process) *dist.Checker {
	return n.arm(cl, o, proc)
}

// ProposeHandler is proposeHandler, for the admin route's tests.
var ProposeHandler = proposeHandler
