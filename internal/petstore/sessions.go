package petstore

import (
	"math/rand"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// Usage pattern labels (Section 3.2).
const (
	PatternBrowser = "Browser"
	PatternBuyer   = "Buyer"
)

// BrowserSessionLength is the paper's browser session length (Table 2).
const BrowserSessionLength = 20

// browserWeightTotal is the Table 2 weight sum, computed once.
var browserWeightTotal = func() int {
	total := 0
	for _, bp := range BrowserPages {
		total += bp.Weight
	}
	return total
}()

// BrowserSession generates the browser session (Table 2): 20 logically
// organized page requests starting at Main, drawn with the Table 2 weights;
// Item requests target an item of the previously requested Product, Product
// requests a product of the previously requested Category. Register layout:
// R[0] = current category, R[1]/R[2] = last requested product (cat, prod).
func BrowserSession(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if st.Pos >= BrowserSessionLength {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumCategories))
		st.R[1] = st.R[0]
		st.R[2] = int64(rng.Intn(ProductsPerCategory))
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
	case PageCategory:
		st.R[0] = int64(rng.Intn(NumCategories))
		step.Set("cat", categoryIDs[st.R[0]])
	case PageProduct:
		st.R[1], st.R[2] = st.R[0], int64(rng.Intn(ProductsPerCategory))
		step.Set("product", productIDs[st.R[1]][st.R[2]])
	case PageItem:
		step.Set("item", itemIDs[st.R[1]][st.R[2]][rng.Intn(ItemsPerProduct)])
	case PageSearch:
		step.Set("q", searchQs[rng.Intn(ProductsPerCategory)])
	}
	return true
}

// BuyerSession generates the buyer session: the fixed Table 3 sequence for a
// random account buying one random item. Register layout: R[0] = account,
// R[1] = item index (flattened).
func BuyerSession(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if int(st.Pos) >= len(BuyerPages) {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumAccounts))
		st.R[1] = int64(rng.Intn(NumCategories)*ProductsPerCategory*ItemsPerProduct +
			rng.Intn(ProductsPerCategory)*ItemsPerProduct + rng.Intn(ItemsPerProduct))
	}
	page := BuyerPages[st.Pos]
	step.Page = page
	switch page {
	case PageVerifySignin:
		step.Set("user", userIDs[st.R[0]])
		step.Set("password", passwords[st.R[0]])
	case PageCart:
		i := st.R[1]
		step.Set("item", itemIDs[i/(ProductsPerCategory*ItemsPerProduct)][(i/ItemsPerProduct)%ProductsPerCategory][i%ItemsPerProduct])
	}
	return true
}

// PaperWorkload returns the three client groups of Section 3.3: 30 page
// requests per second combined, 80% browsers / 20% buyers, split equally
// between one local and two remote groups (10 req/s each). With an 8-second
// think time that is 64 browsers and 16 buyers per group.
func PaperWorkload(a *App) []workload.Group { return PaperWorkloadScaled(a, 1) }

// PaperWorkloadScaled scales the client population (and therefore offered
// load) by scale while keeping the 80/20 mix and group split — the knob
// behind load-sensitivity sweeps.
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

// group builds one client group of browsers and buyers with the paper's
// 8-second soft think time.
func (a *App) group(name, node string, local bool, browsers, writers int) workload.Group {
	return workload.Group{
		Name:           name,
		ClientNode:     node,
		Local:          local,
		Browsers:       browsers,
		Writers:        writers,
		Delay:          8e9, // 8s soft think time -> 10 req/s per group at scale 1
		BrowserPattern: PatternBrowser,
		WriterPattern:  PatternBuyer,
		BrowserGen:     BrowserSession,
		WriterGen:      BuyerSession,
		Request:        a.RequestFunc(),
	}
}

// Plan returns the validated placement plan for the active configuration —
// the Table 1 component inventory plus the configuration's additions,
// expressed against the paper's design rules.
func (a *App) Plan() *core.Plan {
	main := []string{simnet.NodeMain}
	active := make([]string, 0, 3)
	for _, s := range a.activeServers() {
		active = append(active, s.Name())
	}
	catalogServers := main
	if a.cfg.AtLeast(core.StatefulCaching) {
		catalogServers = active
	}
	pl := &core.Plan{App: "petstore"}
	add := func(d container.Descriptor, servers []string) {
		pl.Placements = append(pl.Placements, core.Placement{Desc: d, Servers: servers})
	}
	add(container.Descriptor{Name: BeanCatalog, Kind: container.StatelessSession, Facade: true}, catalogServers)
	add(container.Descriptor{Name: BeanCustomer, Kind: container.StatelessSession, Facade: true}, main)
	add(container.Descriptor{Name: BeanCart, Kind: container.StatefulSession, Facade: true}, active)
	add(container.Descriptor{Name: BeanController, Kind: container.StatefulSession, Facade: true}, active)
	entity := func(name, table, pk string) {
		add(container.Descriptor{
			Name: name, Kind: container.Entity, Table: table, PKColumn: pk,
			Persistence: container.BMP, LocalOnly: true,
		}, main)
	}
	entity(BeanCategory, "category", "catid")
	entity(BeanProduct, "product", "productid")
	entity(BeanItem, "item", "itemid")
	entity(BeanInventory, "inventory", "itemid")
	entity(BeanSignOn, "signon", "username")
	entity(BeanAccount, "account", "userid")
	entity(BeanOrder, "orders", "orderid")
	entity(BeanOrderStatus, "orderstatus", "orderid")
	entity(BeanLineItem, "lineitem", "lineid")
	if a.cfg.AtLeast(core.StatefulCaching) {
		edges := make([]string, 0, len(a.d.Edges))
		for _, e := range a.d.Edges {
			edges = append(edges, e.Name())
		}
		for _, ro := range []string{BeanCategory, BeanProduct, BeanItem, BeanInventory} {
			add(container.Descriptor{
				Name: ro + "RO", Kind: container.Entity, LocalOnly: true,
			}, edges)
		}
		add(container.Descriptor{Name: "Updater", Kind: container.StatelessSession, Facade: true}, edges)
		if a.cfg.AtLeast(core.AsyncUpdates) {
			add(container.Descriptor{Name: "UpdateSubscriber", Kind: container.MessageDriven, Facade: true}, edges)
		}
	}
	return pl
}

// ComponentInventory reproduces Table 1: the EJBs of Java Pet Store with
// their kinds and descriptions, for documentation and inventory tests.
func ComponentInventory() []struct {
	Name string
	Kind container.BeanKind
	Desc string
} {
	return []struct {
		Name string
		Kind container.BeanKind
		Desc string
	}{
		{BeanCatalog, container.StatelessSession, "Handles read-only queries to product database"},
		{BeanCustomer, container.StatelessSession, "Serves as a façade to Order and Account"},
		{BeanCart, container.StatefulSession, "Maintains list of items to be bought by customer"},
		{BeanController, container.StatefulSession, "Manages model objects and processes events"},
		{BeanInventory, container.Entity, "Records availability information for each item"},
		{BeanSignOn, container.Entity, "Keeps userid/password information"},
		{BeanOrder, container.Entity, "Keeps order information"},
		{BeanAccount, container.Entity, "Keeps account information"},
	}
}
