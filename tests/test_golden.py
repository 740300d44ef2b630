"""Golden artifacts: the seeded build suite, byte for byte.

Each entry is (p, weights, iterations_used, SHA-256 of the canonical JSON of
``wach_to_dict(solve_wach(m))``) for ``generate_suite(7, count=33)`` at the
default profile.  The digests cover C, G at the user window and
``meta.iterations_used``; they were recorded before the Gamma-solve moved to
packed series-matrix steps, which must not change one byte.
"""

import hashlib

from wachkit.cyclo import get_context
from wachkit.serialize import dumps_canonical, wach_to_dict
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


def test_seeded_suite_artifacts_are_unchanged():
    modules = generate_suite(7, count=33)
    assert len(modules) == len(GOLDEN)
    for m, (p, weights, iterations, digest) in zip(modules, GOLDEN):
        assert (m.p, m.weights) == (p, weights)
        w = solve_wach(m, get_context(m.p, m.N, m.N))
        text = dumps_canonical(wach_to_dict(w))
        assert w.iterations_used == iterations, (p, weights)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (p, weights)
