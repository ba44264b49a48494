// Package deploy is the one place a ShadowDB process is built from its
// settings. A Node holds every flag of cmd/shadowdb; a Cluster holds
// what every node of one deployment shares — the topology, the
// application its replicas run and the PBR timing — read once (Load
// reads it from the -topology file; the public API shadowdb.Open builds
// it in memory). A Node becomes a running process in three steps, each
// usable on its own:
//
//   - Validate checks the settings against each other and the topology
//     file before a socket or a store is opened: what the node cannot
//     honour is a usage error, never a node that boots as something the
//     operator did not ask for.
//   - Process builds the role's gpm.Process and its boot directives in a
//     Cluster over a store.Provider the caller opened. It opens no
//     socket, so a caller can wrap transport, store and process, or
//     host it on the channel hub as shadowdb.Open does.
//   - Serve is the process shell around both: TCP, fault plan, data
//     directory, membership view and topology re-stamp, online checker,
//     flight recorder, admin endpoint, signal wait.
//
// Roles come from ids by one strict rule (RoleOf). Client is the
// matching settings value for cmd/shadowdb-client, which reads the same
// topology file the servers do; its Session runs over any transport.
package deploy
