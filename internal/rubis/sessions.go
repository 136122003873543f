package rubis

import (
	"math/rand"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// Usage pattern labels.
const (
	PatternBrowser = "Browser"
	PatternBidder  = "Bidder"
)

// BrowserSessionLength is the paper's RUBiS browser session length.
const BrowserSessionLength = 40

// itemInCategory returns a random item id belonging to category c (items
// are seeded round-robin across categories).
func itemInCategory(rng *rand.Rand, c int64) int64 {
	k := rng.Intn(NumItems / NumCategories)
	return c + int64(k*NumCategories)
}

// browserWeightTotal is the Table 4 weight sum, computed once.
var browserWeightTotal = func() int {
	total := 0
	for _, bp := range BrowserPages {
		total += bp.Weight
	}
	return total
}()

// BrowserSession generates the 40-request browser session with the Table 4
// page weights, starting at Main; Bids requests target the previously viewed
// item, and Item requests follow the last listing's category. Register
// layout: R[0] = current category, R[1] = current region, R[2] = last viewed
// item.
func BrowserSession(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if st.Pos >= BrowserSessionLength {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumCategories) + 1)
		st.R[1] = int64(rng.Intn(NumRegions) + 1)
		st.R[2] = itemInCategory(rng, st.R[0])
		step.Page = PageMain
		return true
	}
	r := rng.Intn(browserWeightTotal)
	page := PageMain
	for _, bp := range BrowserPages {
		if r < bp.Weight {
			page = bp.Page
			break
		}
		r -= bp.Weight
	}
	step.Page = page
	switch page {
	case PageRegion:
		st.R[1] = int64(rng.Intn(NumRegions) + 1)
		step.Set("region", intStr(st.R[1]))
	case PageCategory:
		st.R[0] = int64(rng.Intn(NumCategories) + 1)
		step.Set("cat", intStr(st.R[0]))
	case PageCatRegion:
		st.R[0] = int64(rng.Intn(NumCategories) + 1)
		step.Set("cat", intStr(st.R[0]))
		step.Set("region", intStr(st.R[1]))
	case PageItem:
		st.R[2] = itemInCategory(rng, st.R[0])
		step.Set("item", intStr(st.R[2]))
	case PageBids:
		step.Set("item", intStr(st.R[2]))
	case PageUserInfo:
		step.Set("user", intStr(int64(rng.Intn(NumUsers)+1)))
	}
	return true
}

// BidderSession generates the bidder session (Table 5): the bidder bids on
// an item and leaves a comment for its seller, authenticating before each
// write activity (RUBiS keeps no login session). Register layout: R[0] =
// user, R[1] = item, R[2] = bid table index.
func BidderSession(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if int(st.Pos) >= len(BidderPages) {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumUsers))
		st.R[1] = int64(rng.Intn(NumItems) + 1)
		st.R[2] = int64(rng.Intn(500))
	}
	u := int(st.R[0])
	item := st.R[1]
	seller := (item-1)%NumUsers + 1
	page := BidderPages[st.Pos]
	step.Page = page
	setAuth := func() {
		step.Set("nick", nicknames[u])
		step.Set("password", userPws[u])
	}
	switch page {
	case PagePutBidForm:
		setAuth()
		step.Set("item", intStr(item))
	case PageStoreBid:
		setAuth()
		step.Set("item", intStr(item))
		step.Set("bid", bidStrs[st.R[2]])
	case PagePutCommentForm:
		setAuth()
		step.Set("to", intStr(seller))
	case PageStoreComment:
		setAuth()
		step.Set("to", intStr(seller))
		step.Set("item", intStr(item))
		step.Set("rating", ratings[rng.Intn(5)])
	}
	return true
}

// RequestFunc adapts the app to the workload driver.
func (a *App) RequestFunc() workload.RequestFunc {
	return func(p *sim.Proc, client workload.Client, step workload.Step) (time.Duration, error) {
		srv := a.d.ServerFor(client.Node, a.cfg)
		_, rt, err := srv.Web().Get(p, client.Node, step.Page, step.Params, nil)
		return rt, err
	}
}

// PaperWorkload returns the Section 3.3 client groups: 30 req/s combined,
// 80% browsers / 20% bidders, one local and two remote groups.
func PaperWorkload(a *App) []workload.Group { return PaperWorkloadScaled(a, 1) }

// PaperWorkloadScaled scales the client population by scale, preserving the
// mix and group split (load-sensitivity sweeps).
func PaperWorkloadScaled(a *App, scale float64) []workload.Group {
	browsers := int(64*scale + 0.5)
	writers := int(16*scale + 0.5)
	if browsers < 1 {
		browsers = 1
	}
	if writers < 1 {
		writers = 1
	}
	return []workload.Group{
		a.group("local", simnet.NodeClientsMain, true, browsers, writers),
		a.group("remote-1", simnet.NodeClientsEdge1, false, browsers, writers),
		a.group("remote-2", simnet.NodeClientsEdge2, false, browsers, writers),
	}
}

// group builds one client group of browsers and bidders with the paper's
// 8-second soft think time.
func (a *App) group(name, node string, local bool, browsers, writers int) workload.Group {
	return workload.Group{
		Name:           name,
		ClientNode:     node,
		Local:          local,
		Browsers:       browsers,
		Writers:        writers,
		Delay:          8 * time.Second,
		BrowserPattern: PatternBrowser,
		WriterPattern:  PatternBidder,
		BrowserGen:     BrowserSession,
		WriterGen:      BidderSession,
		Request:        a.RequestFunc(),
	}
}

// Plan returns the validated placement plan for the active configuration.
func (a *App) Plan() *core.Plan {
	main := []string{simnet.NodeMain}
	active := make([]string, 0, 3)
	for _, s := range a.activeServers() {
		active = append(active, s.Name())
	}
	edges := make([]string, 0, len(a.d.Edges))
	for _, e := range a.d.Edges {
		edges = append(edges, e.Name())
	}
	pl := &core.Plan{App: "rubis"}
	add := func(d container.Descriptor, servers []string) {
		pl.Placements = append(pl.Placements, core.Placement{Desc: d, Servers: servers})
	}
	facade := func(name string, servers []string) {
		add(container.Descriptor{Name: name, Kind: container.StatelessSession, Facade: true}, servers)
	}
	viewServers := main
	if a.cfg.AtLeast(core.StatefulCaching) {
		viewServers = active
	}
	cachedServers := main
	if a.cfg.AtLeast(core.QueryCaching) {
		cachedServers = active
	}
	facade(SBBrowseCategories, cachedServers)
	facade(SBBrowseRegions, cachedServers)
	facade(SBSearchByCategory, cachedServers)
	facade(SBSearchByRegion, cachedServers)
	facade(SBViewItem, viewServers)
	facade(SBViewBidHistory, viewServers)
	facade(SBViewUserInfo, viewServers)
	facade(SBPutBid, cachedServers)
	facade(SBPutComment, cachedServers)
	facade(SBStoreBid, main)
	facade(SBStoreComment, main)
	entity := func(name, table string) {
		add(container.Descriptor{
			Name: name, Kind: container.Entity, Table: table, PKColumn: "id",
			Persistence: container.CMP, LocalOnly: true,
		}, main)
	}
	entity(BeanItem, "items")
	entity(BeanUser, "users")
	entity(BeanBid, "bids")
	entity(BeanComment, "comments")
	entity(BeanCategory, "categories")
	entity(BeanRegion, "regions")
	if a.cfg.AtLeast(core.StatefulCaching) {
		for _, ro := range []string{BeanItem, BeanUser} {
			add(container.Descriptor{Name: ro + "RO", Kind: container.Entity, LocalOnly: true}, edges)
		}
		facade("Updater", edges)
		if a.cfg.AtLeast(core.AsyncUpdates) {
			add(container.Descriptor{Name: "UpdateSubscriber", Kind: container.MessageDriven, Facade: true}, edges)
		}
	}
	return pl
}
