"""Golden artifacts: the seeded build suite and its reductions, byte for byte.

Each GOLDEN entry is (p, weights, iterations_used, SHA-256 of the canonical
JSON of ``wach_to_dict(solve_wach(m))``) for ``generate_suite(7, count=33)``
at the default profile.  The digests cover C, G at the user window and
``meta.iterations_used``; they were recorded before the Gamma-solve moved to
packed series-matrix steps, which must not change one byte.

REDUCED holds, per module, the SHA-256 of the canonical ``reduce`` payload
(``reduction_to_dict(recover_filtration(w, m.h))``: fil_ranks, weights,
A_recovered, adapted_basis, fil_generators).  They were recorded while
recover_filtration still divided each entry of C once per r, before it
divided each entry once for all r.
"""

import hashlib
from functools import cache

from wachkit.cyclo import get_context
from wachkit.reduction import recover_filtration
from wachkit.serialize import dumps_canonical, reduction_to_dict, wach_from_dict, wach_to_dict
from wachkit.suite import generate_suite
from wachkit.wach import solve_wach

GOLDEN = (
    (3, (0, 1), 20, "618e739d4e99faf7a7b38249b199c22150865c39ef32c0afc9cb85c4a6fc1483"),
    (5, (0, 0, 3), 19, "f95758a7f7458dbbc1a806fa4751efdd7d04908ca89e0cc78375edd5a6a18448"),
    (7, (4,), 5, "5cb2e6003f597a462738859d40692582ebf270f137cc010d5bcf2047bd3be5aa"),
    (3, (1, 1), 11, "ae88c7e3ed056ecd93531b75cc87ca551b696a9cd1aee602a9c1cc7655155b3b"),
    (5, (1, 2, 3), 7, "033f4225f8d5ed3763a5c125ad1c3fe5c78c489b1373c67acc89d3e7d2e5bf2f"),
    (7, (5,), 5, "ca314a1c40b2d8b0d66012066d1651155baa538e93e8cf45f832e50af6a01d14"),
    (3, (1, 1, 1), 11, "3f9607e0d1841fff2d43860dd0f4d7230f5ab730a101473ff09f2fdad62428a0"),
    (5, (1, 2, 2), 7, "eda08ca8a372ae76737ae2a8f319f3c7ba0d2eac70597925a3dda6763996dd9f"),
    (7, (4,), 5, "073f6180d265ce442b2fd635010f63e3057350f796f1c7b6d7d945e61d1a06e7"),
    (3, (1,), 11, "8a1ec6c516f73fd931bb8754dcce399b9cc2ef14177441f4c83fac177908fa16"),
    (5, (3,), 7, "d9b8f8eae53a450b441c5cb69b56ceef6e0f6ad5bf93cc6269793fdef7054fea"),
    (7, (0,), 1, "b95372401bd87bcbd6e11adf9e7f73665aa51c0d0b927c3ba16bf8e5c4fe0395"),
    (3, (1, 1), 11, "1966b156e0111438dbc5242bfb50088f2b5521016f55a2af37e3f22f6b2f672e"),
    (5, (2, 2, 3), 8, "c6265db6215658a181f9e02435685baa78e6c00c855d7e5d49e5949dae6e2b09"),
    (7, (1, 2, 5), 11, "5f9af04d8e16d916178fe6e9d0ddb444d290b57d82f41b0cdffc37f21e9d11ec"),
    (3, (1,), 11, "88403cbe24fe3d250fb8f778ee1f892b63ceb6eafdd5c13ee587a98ea5e8c8c5"),
    (5, (1, 2), 8, "8c0bebb38815273f56af26649a3ca74a61fa70157add6febfcc70ef9989d5616"),
    (7, (0, 2, 5), 18, "0eda2cca03cc95fb4d18de31540d604e0607a31d52e5a7fd7c7250d24e66da4c"),
    (3, (0, 1, 1), 19, "2a677e6a7b54722483f33c3f57180c72f8de59897be797b4804397f07e104799"),
    (5, (2, 3), 8, "476d60b29647cbc6c8ca65c90bf8473ae2339b934205eb42489b1a0e547ebd0f"),
    (7, (1, 1, 4), 8, "cd30db6c742372d38df929dd0a337924a1f1da924a31a48cebff368a445b8c10"),
    (3, (0, 1, 1), 20, "00148297410acbbb7eaa2d9b9d125742858cf4b71b533af76a669ca7ac5d6439"),
    (5, (0, 0), 1, "803f965bbc925ce58fe7070884381dc3de11f32a2212ec09a71b14160a29ddfa"),
    (7, (1, 3), 5, "83710a04d640c21239e262e26c8c5166b256e5179f13d07ff3fe9270b4544813"),
    (3, (1,), 11, "246d16fec3f9827f0b7b38f26f0a5361cbf369fcc5db3fb15cc76dfc056776be"),
    (5, (0, 3, 3), 11, "581c5697a4db5ebcae1c2ee6cbeee514dae5fba7b10e878e872e9a92ffd883e9"),
    (7, (0, 3), 8, "7f49975c15ffdef21cdf662acb49078ffdcfe8e33fe027daca2467bc10a2a940"),
    (3, (0, 0, 0), 1, "67e8d9d0f6f3ded873efdcebf24044868688c4742076ecb0a53454a7d2d46439"),
    (5, (1, 2, 3), 11, "d0bf3bc5f215567df99d71de421f29a57ce8da6345a8655d0c119328190febc6"),
    (7, (1, 1, 2), 6, "e7b791dc4225846fbd06a67cea5204119ed783d96e1e9c7a983389a50f415587"),
    (3, (0, 1), 20, "2e77319c86c4595f24c119c25215036f226f9cab467fd1a7ca6ed3e320277795"),
    (5, (3,), 7, "2d98d500746b2ba57d92582865b163b99deb263e53e06cf4932ea7878dff22de"),
    (7, (0, 3), 8, "c9b96bd09d3d3619faf71cf80b226d7bc02cd4036c0415fc1aad05d3c1dc331b"),
)

REDUCED = (
    "6e1bb1672ef3676b3b81fc447a6122ff227cdec88a1f1ba024547447ba416fb4",
    "d1f722e07ccca4cf123c350851cba8569c8011a1f5e5537598f24c1a35a3bf5c",
    "cd999ae3fbbd5103fa87b62a8df67101861e9c4592cf99a1444fe8c880b02659",
    "d06439eb3c5091af7126da3500b26a0391d83d1727d67365e182ec44a0bae533",
    "1ae19687bf171c0f8bd2fb1b3a379d1f31b621e783136001ebddd2ee1066319f",
    "1cf68ff413b579227ea621f29ec383e17e7a57af4ba79bd3fc0b0065aa8b58b2",
    "0b9c8b03cf477ca3dd2ba9a0d93b07a231546cd5bcdea8dfa5667511c084be23",
    "c301eed2950ae6ec58edce8ba703d878d7bf1bead3d5fb2741a8363d01aa064c",
    "3d926ae8bebd8fbddec35f5bfbdd43ff39a9bfde187e5de60cac12745c385d5e",
    "7610dc57d5d984ec9ca01ba5a565e14d85f566d6207ef881f7bf9acec3aedf40",
    "0da44318eb38683cd6b55d1b5b42ac18ecc4cf2e5aaa7b2502da86b98cf0835f",
    "6a749060771a661129e3db6d711a4c970e815a964c0493371d11d6d36609f29e",
    "431cd1930b7f6cb08530fd5ee1c09fed602a2002f582e7bbce8a3b2c171a2644",
    "1409c4d558615d1054a6f03ba1bd7a403e424cd3f8a1a9f077d38fdb5049983d",
    "51487cb40901ab4e78ce6b5c1a5a7bd0f1d3dc4231f88a124bc6eb082383728f",
    "258b26c5e802931766ab76b3f590d4f8554aeb4420a68e628be3f39e9ae59546",
    "1c1a45794712c51ea370faad066bdc6a394fb98446b12f1e37261d15426ee4b2",
    "0d5cba713fab19b99e4372a0c07e8961f21fac7b1ecb0819be60e0780eb089f5",
    "032368c0cb4ebbbd21e13090e933310b4d9b2b7462172799f50d0d1bc52808c5",
    "4e0dea910f98b78e84cb6dfdfa0e973f747ce7e952c27354d219ed4022cd0e61",
    "550609e9a6a3fa85d760d9fadc2c3322a23b4a20fee4bdadb43bdd2053868557",
    "ec5a0ca6bbf1eca13d6c9cda87f3ec2857c067d2dee55c7d9805e6af905ff47e",
    "fb69c8963c7730bc661d2e6a9984afb247f5b77f3a0af3184fd36419e8f54959",
    "a4536a957b335b47a81f501c7665d0e5119bee48b1652aa7aa4acf379c4cb1d6",
    "b263f1a50900cd87b8f6288d99f5c16695f4974866a772489a5c8e8ba39c15ec",
    "6b078fda7f66dc1c774efd949c3bd705d3497e8d1ec66c954897fe63ba9fc0f1",
    "18bbb98ce84d1a7dbabc7e8526e74cb60880ab88a5fb7177d47124ee6bf2eeea",
    "c06a36c60b1aa6146e82ad3e23539033fe7cbea227e7a8e1ccc56c9edf0cc616",
    "2766c9ad3daa41f36d87d1717c749708b787ec26184bcaaa49ac349b534c796d",
    "c409b154dee13b8dec01083dad898fafda7949f3a78bf88a946849dd713f2e3b",
    "da95f1d49a0b2325798dda27cca5038d34f9bd5e5be6327848e74fcb94689d73",
    "20856e1e9d40b658e6145205d8b03e4c87334a0a0da3dde7e0a5ec9c9ab52215",
    "760eb72ac8015df114acf69326cfa6cbc84966f447ab717985c52c6a5349fa47",
)


def _sha256(payload) -> str:
    return hashlib.sha256(dumps_canonical(payload).encode()).hexdigest()


@cache
def _solved_suite():
    return [(m, solve_wach(m, get_context(m.p, m.N, m.N))) for m in generate_suite(7, count=33)]


def test_seeded_suite_artifacts_are_unchanged():
    suite = _solved_suite()
    assert len(suite) == len(GOLDEN)
    for (m, w), (p, weights, iterations, digest) in zip(suite, GOLDEN):
        assert (m.p, m.weights) == (p, weights)
        assert w.iterations_used == iterations, (p, weights)
        assert _sha256(wach_to_dict(w)) == digest, (p, weights)


def test_seeded_suite_artifacts_load_back():
    # every recorded step count lies within the loader's proved bound
    for _, w in _solved_suite():
        assert wach_from_dict(wach_to_dict(w)) == w


def test_seeded_suite_reductions_are_unchanged():
    suite = _solved_suite()
    assert len(suite) == len(REDUCED)
    for (m, w), digest in zip(suite, REDUCED):
        assert _sha256(reduction_to_dict(recover_filtration(w, m.h))) == digest, (m.p, m.weights)
